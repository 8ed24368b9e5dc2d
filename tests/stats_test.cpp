// Tests for runtime statistics, the task builder's clause plumbing and the
// diagnostic dump facility.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sigrt.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

RuntimeConfig inline_config(PolicyKind p = PolicyKind::GTBMaxBuffer) {
  RuntimeConfig c;
  c.workers = 0;
  c.policy = p;
  return c;
}

TEST(Builder, CarriesAllClauses) {
  int data[8] = {};
  auto opts = sigrt::task([] {})
                  .approx([] {})
                  .significance(0.42)
                  .group(3)
                  .in(data, 4)
                  .out(data + 4, 4)
                  .take();
  EXPECT_TRUE(static_cast<bool>(opts.accurate));
  EXPECT_TRUE(static_cast<bool>(opts.approximate));
  EXPECT_DOUBLE_EQ(opts.significance, 0.42);
  EXPECT_EQ(opts.group, 3u);
  ASSERT_EQ(opts.accesses.size(), 2u);
  EXPECT_EQ(opts.accesses[0].mode, sigrt::dep::Mode::In);
  EXPECT_EQ(opts.accesses[0].bytes, 4 * sizeof(int));
  EXPECT_EQ(opts.accesses[1].mode, sigrt::dep::Mode::Out);
}

TEST(Builder, InoutClauseMapsToInOutMode) {
  double cell = 0.0;
  auto opts = sigrt::task([] {}).inout(&cell).take();
  ASSERT_EQ(opts.accesses.size(), 1u);
  EXPECT_EQ(opts.accesses[0].mode, sigrt::dep::Mode::InOut);
  EXPECT_EQ(opts.accesses[0].bytes, sizeof(double));
}

TEST(Builder, DefaultsAreAccurateUngroupedFullSignificance) {
  auto opts = sigrt::task([] {}).take();
  EXPECT_DOUBLE_EQ(opts.significance, 1.0);
  EXPECT_EQ(opts.group, sigrt::kDefaultGroup);
  EXPECT_FALSE(static_cast<bool>(opts.approximate));
  EXPECT_TRUE(opts.accesses.empty());
}

TEST(Stats, DepEdgesCounted) {
  // MaxBuffer parks every task until the barrier, so all ten registrations
  // happen while their predecessors are alive — the full 9-edge chain is
  // discovered.  (Inline+agnostic would execute each task at spawn and see
  // no unfinished predecessors at all.)
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  alignas(1024) static double chain[128];
  for (int i = 0; i < 10; ++i) {
    rt.spawn(sigrt::task([] {}).inout(chain, 128));
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().dep_edges, 9u);  // 10-node chain
}

TEST(Stats, BusyAndWallTimesAdvance) {
  Runtime rt(inline_config(PolicyKind::Agnostic));
  rt.spawn(sigrt::task([] {
    volatile double x = 1.0;
    for (int i = 0; i < 300000; ++i) x = x * 1.0000001 + 0.1;
  }));
  rt.wait_all();
  const auto s = rt.stats();
  EXPECT_GT(s.busy_s, 0.0);
  EXPECT_GE(s.wall_s, s.busy_s * 0.5);  // wall includes busy (inline mode)
}

TEST(Stats, PolicyNameMatchesConfig) {
  EXPECT_STREQ(Runtime(inline_config(PolicyKind::Agnostic)).policy_name(),
               "agnostic");
  EXPECT_STREQ(Runtime(inline_config(PolicyKind::GTB)).policy_name(), "GTB");
  EXPECT_STREQ(Runtime(inline_config(PolicyKind::GTBMaxBuffer)).policy_name(),
               "GTB(MaxBuffer)");
  EXPECT_STREQ(Runtime(inline_config(PolicyKind::LQH)).policy_name(), "LQH");
}

TEST(Stats, TrackerStatsVisibleThroughRuntime) {
  Runtime rt(inline_config(PolicyKind::Agnostic));
  alignas(1024) static int area[512];
  rt.spawn(sigrt::task([] {}).out(area, 512));
  rt.wait_all();
  EXPECT_GE(rt.tracker().stats().registered_nodes, 1u);
}

// Empty task body that counts its own destruction, which happens when the
// task's pool slot is recycled (Task::reset_for_reuse) on whichever thread
// drops the last reference.
class RecycleToken {
 public:
  explicit RecycleToken(std::atomic<int>* recycled) : recycled_(recycled) {}
  RecycleToken(RecycleToken&& other) noexcept
      : recycled_(std::exchange(other.recycled_, nullptr)) {}
  RecycleToken(const RecycleToken&) = delete;
  RecycleToken& operator=(const RecycleToken&) = delete;
  RecycleToken& operator=(RecycleToken&&) = delete;
  ~RecycleToken() {
    if (recycled_ != nullptr) recycled_->fetch_add(1, std::memory_order_relaxed);
  }
  void operator()() const {}

 private:
  std::atomic<int>* recycled_;
};

TEST(Stats, TrackerHoldsNoRegionAfterWaitAll) {
  // Threaded, with overlapping wide reads, narrow writes and inout chains,
  // behind top-level wait_all and wait_group barriers in turn: once a
  // barrier returns, every region is erased and every task it covered has
  // recycled its pool slot.  A completed task stays on the tracker's
  // retired list, pinned, until a drain; the barrier's reclaim() is that
  // drain, and a task never drained would hold its slot for good.
  RuntimeConfig c;
  c.workers = 3;
  c.policy = PolicyKind::GTB;
  const std::uint64_t live_before = sigrt::TaskPool::instance().stats().live();
  {
    Runtime rt(c);
    const auto rows_group = rt.create_group("rows", 1.0);
    static std::vector<unsigned char> image(64 * 1024);
    static std::vector<unsigned char> rows(64 * 512);
    std::atomic<int> recycled{0};
    int spawned = 0;
    for (int round = 0; round < 6; ++round) {
      const bool by_group = round % 2 == 1;
      const auto g = by_group ? rows_group : sigrt::kDefaultGroup;
      for (std::size_t i = 0; i < 64; ++i) {
        rt.spawn(sigrt::task(RecycleToken(&recycled))
                     .significance(0.5)
                     .group(g)
                     .in(image.data(), image.size())
                     .out(rows.data() + i * 512, 512));
        rt.spawn(sigrt::task(RecycleToken(&recycled))
                     .group(g)
                     .inout(rows.data() + i * 512 + 100, 600));
      }
      rt.spawn(sigrt::task(RecycleToken(&recycled))
                   .group(g)
                   .inout(image.data() + 1000, 3000));
      spawned += 129;
      if (by_group) {
        rt.wait_group(g);
      } else {
        rt.wait_all();
      }
      // A worker drops its reference to the task it ran just after the
      // barrier count does, so the last few slots may trail the barrier.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (recycled.load(std::memory_order_relaxed) != spawned &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      EXPECT_EQ(recycled.load(), spawned) << "round " << round;
      // stats() drains first, so it is read only after the poll.
      EXPECT_EQ(rt.tracker().stats().live_regions, 0u) << "round " << round;
    }
    EXPECT_GT(rt.stats().dep_edges, 0u);
  }
  // A worker batches its remote frees and flushes them when it exits, so
  // the pool's live count is exact only now: every slot came back.
  EXPECT_EQ(sigrt::TaskPool::instance().stats().live(), live_before);
}

TEST(Stats, RuntimeCountersOnlyGoUpAcrossGroupResets) {
  // perfbench's pattern: reset the group's report after every run.  The
  // group report restarts from zero; the runtime-wide counters do not.
  RuntimeConfig c;
  c.workers = 2;
  c.policy = PolicyKind::Agnostic;
  Runtime rt(c);
  const auto g = rt.create_group("rounds", 1.0);
  const std::uint64_t spawned0 = rt.stats().spawned;
  const std::uint64_t accurate0 = rt.stats().accurate;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i) rt.spawn(sigrt::task([] {}).group(g));
    rt.wait_group(g);
    EXPECT_EQ(rt.group_report(g).spawned, 100u) << "round " << round;
    rt.group(g).reset_stats();
    const sigrt::GroupReport after = rt.group_report(g);
    EXPECT_EQ(after.spawned, 0u);
    EXPECT_EQ(after.accurate + after.approximate + after.dropped, 0u);
  }
  EXPECT_EQ(rt.stats().spawned - spawned0, 300u);
  EXPECT_EQ(rt.stats().accurate - accurate0, 300u);
  EXPECT_EQ(rt.group(g).totals().spawned, 300u);
}

// The task counters live in per-worker shards and are summed on read: after
// the barrier they must be exact however the spawns and completions spread
// over the shards.  Three workers plus two user threads run nested
// fan-outs into two groups — some children waited in-task, some not, some
// without an approxfun (dropped when approximated).
TEST(Stats, ShardedCountersAreExactAfterTheBarrier) {
  RuntimeConfig c;
  c.workers = 3;
  c.policy = PolicyKind::LQH;
  Runtime rt(c);
  const auto x = rt.create_group("x", 0.5);
  const auto y = rt.create_group("y", 0.3);
  constexpr int kThreads = 2;
  constexpr int kRoots = 40;     // per thread, alternating x and y
  constexpr int kChildren = 12;  // per root: even ones in x, odd ones in y
  const std::uint64_t spawned0 = rt.stats().spawned;

  std::vector<std::thread> users;
  for (int t = 0; t < kThreads; ++t) {
    users.emplace_back([&rt, x, y] {
      for (int r = 0; r < kRoots; ++r) {
        rt.spawn(sigrt::task([&rt, x, y, r] {
                   for (int k = 0; k < kChildren; ++k) {
                     auto child = sigrt::task([] {})
                                      .significance((k % 10) / 10.0)
                                      .group(k % 2 == 0 ? x : y);
                     if (k % 3 != 0) child.approx([] {});
                     rt.spawn(std::move(child));
                     if (r % 2 == 0 && k == kChildren / 2) rt.wait_all();
                   }
                 })
                     .significance(1.0)  // always runs the fan-out body
                     .group(r % 2 == 0 ? x : y));
      }
    });
  }
  for (auto& u : users) u.join();
  rt.wait_all();

  // Each group gets half the roots and half of every root's children.
  constexpr std::uint64_t kPerGroup =
      kThreads * (kRoots / 2 + kRoots * kChildren / 2);
  for (const auto g : {x, y}) {
    const sigrt::GroupReport r = rt.group_report(g);
    EXPECT_EQ(r.spawned, kPerGroup) << r.name;
    EXPECT_EQ(r.accurate + r.approximate + r.dropped, kPerGroup) << r.name;
    EXPECT_EQ(rt.group(g).pending(), 0u) << r.name;
  }
  EXPECT_EQ(rt.stats().spawned - spawned0, 2 * kPerGroup);
}

TEST(Dump, StateSnapshotIsWellFormed) {
  Runtime rt(inline_config(PolicyKind::GTB));
  const auto g = rt.create_group("dumped", 0.5);
  rt.spawn(sigrt::task([] {}).approx([] {}).significance(0.5).group(g));
  rt.wait_group(g);

  char buffer[4096] = {};
  FILE* mem = fmemopen(buffer, sizeof(buffer), "w");
  ASSERT_NE(mem, nullptr);
  rt.dump_state(mem);
  std::fclose(mem);

  const std::string text(buffer);
  EXPECT_NE(text.find("runtime: pending=0"), std::string::npos);
  EXPECT_NE(text.find("'dumped'"), std::string::npos);
  EXPECT_NE(text.find("scheduler: workers=0"), std::string::npos);
}

TEST(Dump, ThreadedSnapshotListsWorkers) {
  RuntimeConfig c;
  c.workers = 3;
  c.unreliable_workers = 1;
  Runtime rt(c);
  rt.spawn(sigrt::task([] {}));
  rt.wait_all();

  char buffer[8192] = {};
  FILE* mem = fmemopen(buffer, sizeof(buffer), "w");
  ASSERT_NE(mem, nullptr);
  rt.dump_state(mem);
  std::fclose(mem);

  const std::string text(buffer);
  EXPECT_NE(text.find("worker 0"), std::string::npos);
  EXPECT_NE(text.find("worker 2"), std::string::npos);
  EXPECT_NE(text.find("unreliable=1"), std::string::npos);
}

}  // namespace
