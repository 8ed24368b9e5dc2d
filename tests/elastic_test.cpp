// Elastic-pool and topology tests: slot handoff on begin_blocking()
// inflates the pool with spare threads and the pool deflates back to the
// base worker count after the idle grace; deep spawn+taskwait recursion
// keeps per-thread helping nesting bounded by the helping-depth cap (the
// stack-bound oracle for detach-for-blocking); and the sysfs topology
// probe is exercised against a fabricated /sys tree plus its flat
// fallback.  The pool tests run under TSan in CI — they are the race
// gate for the slot-handoff and spare-retirement protocols.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "core/sigrt.hpp"
#include "core/topology.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::PoolStats;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

RuntimeConfig pool_config(unsigned workers) {
  RuntimeConfig c;
  c.workers = workers;
  c.policy = PolicyKind::Agnostic;
  c.record_task_log = false;
  return c;
}

/// Polls `pred` for up to `deadline_ms`; returns whether it ever held.
template <typename Pred>
bool eventually(Pred pred, int deadline_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// --- inflate / deflate oracle --------------------------------------------

TEST(ElasticPool, BlockingHandoffInflatesThenPoolDeflatesAfterGrace) {
  Runtime rt(pool_config(2));

  // A task body that blocks outside the runtime hands its slot to a spare
  // so the sibling task still has two workers' worth of parallelism.
  std::atomic<bool> sibling_ran{false};
  std::atomic<bool> detached{false};
  rt.spawn(sigrt::task([&] {
    sigrt::BlockingSection bs(rt);
    detached.store(bs.detached(), std::memory_order_relaxed);
    // "Blocked" span: wait until the sibling actually ran elsewhere.
    while (!sibling_ran.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  rt.spawn(sigrt::task([&] {
    sibling_ran.store(true, std::memory_order_release);
  }));
  rt.wait_all();

  EXPECT_TRUE(detached.load());
  const PoolStats inflated = rt.pool_stats();
  EXPECT_GE(inflated.handoffs, 1u);
  EXPECT_GE(inflated.spares_spawned, 1u);

  // Deflate: once the blocked body unwound, the pool is one thread over
  // strength; the surplus thread must retire after the idle grace.
  EXPECT_TRUE(eventually([&] {
    const PoolStats s = rt.pool_stats();
    return s.spares_retired >= 1 && s.live_threads == 2;
  })) << "pool never deflated: live_threads="
      << rt.pool_stats().live_threads;
}

TEST(ElasticPool, BeginBlockingIsANoOpOffWorker) {
  Runtime rt(pool_config(2));
  EXPECT_FALSE(rt.begin_blocking());  // not a task body: nothing to hand off
}

// --- deep recursion: helping nesting stays bounded -----------------------

std::atomic<int> g_max_nesting{0};
thread_local int tls_nesting = 0;

void update_max(std::atomic<int>& max, int v) {
  int cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void chain(Runtime& rt, int depth, std::atomic<int>& visited) {
  ++tls_nesting;
  update_max(g_max_nesting, tls_nesting);
  visited.fetch_add(1, std::memory_order_relaxed);
  if (depth > 0) {
    rt.spawn(sigrt::task([&rt, depth, &visited] {
      chain(rt, depth - 1, visited);
    }));
    rt.wait_all();  // in-task: helping barrier over the one child
  }
  --tls_nesting;
}

TEST(ElasticPool, DeepChainKeepsPerThreadNestingUnderHelpingDepthCap) {
  constexpr int kDepth = 128;
  Runtime rt(pool_config(2));
  g_max_nesting.store(0);

  std::atomic<int> visited{0};
  rt.spawn(sigrt::task([&] { chain(rt, kDepth - 1, visited); }));
  rt.wait_all();

  EXPECT_EQ(visited.load(), kDepth);
  // Inline helping nests a child's frame inside its waiting parent's, so
  // native stack growth tracks tls_nesting.  The cap forces a detach
  // instead of helping past kHelpingDepth — a 128-deep chain must NOT put
  // 128 frames on any one thread.  Slack covers the helping frames a spare
  // inherits mid-chain before its own counter resets.
  EXPECT_LE(g_max_nesting.load(),
            static_cast<int>(Runtime::kHelpingDepth) * 2 + 8);
  // The bound is only meaningful if the detach path actually engaged.
  EXPECT_GE(rt.pool_stats().handoffs, 1u);
}

// A worker that handed its slot off past kHelpingDepth keeps its outer
// helping frames on the stack.  Once the inner frames unwind, each outer
// frame waits for a child the slot's new owner has yet to run; it must park
// for it, not spin.  A comb — every node spawns a sleeping leaf, then the
// next node — makes those waits long: while the leaves sleep, nothing
// should burn CPU, so the process's CPU time stays a small share of the
// wall time.  Spinning outer frames burn a core for the whole unwind.
TEST(ElasticPool, DetachedWorkerParksInItsOuterHelpingFrames) {
  constexpr int kDepth = static_cast<int>(Runtime::kHelpingDepth) + 8;
  Runtime rt(pool_config(1));
  std::atomic<int> slept{0};
  struct Comb {
    static void node(Runtime& rt, int depth, std::atomic<int>& slept) {
      rt.spawn(sigrt::task([&slept] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        slept.fetch_add(1);
      }));
      if (depth > 1) {
        rt.spawn(sigrt::task(
            [&rt, depth, &slept] { node(rt, depth - 1, slept); }));
      }
      rt.wait_all();  // in-task: the leaf and the next node
    }
  };
  const auto cpu_s = [] {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  const double cpu0 = cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  rt.spawn(sigrt::task([&] { Comb::node(rt, kDepth, slept); }));
  rt.wait_all();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double cpu = cpu_s() - cpu0;
  EXPECT_EQ(slept.load(), kDepth);
  EXPECT_GE(rt.pool_stats().handoffs, 1u) << "the comb never detached";
  EXPECT_LT(cpu, 0.3 * wall) << "cpu " << cpu << " s over " << wall
                             << " s of mostly sleeping leaves";
}

TEST(ElasticPool, PoolStaysBalancedAfterBlockingStormsWithFailures) {
  // Repeated storms of blocking sections whose bodies then THROW: the
  // handoff path (slot donated to a spare) composes with the error path
  // (exception recorded, barrier rethrows).  The oracle is the PoolStats
  // ledger — slots were actually handed off, and after the storms the pool
  // deflates back to exactly the base worker count instead of leaking a
  // spare per failure.
  Runtime rt(pool_config(2));

  constexpr int kRounds = 8;
  std::atomic<int> siblings{0};
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 4; ++i) {
      rt.spawn(sigrt::task([&rt] {
        {
          sigrt::BlockingSection bs(rt);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        throw std::runtime_error("post-blocking boom");
      }));
      rt.spawn(sigrt::task([&] { siblings.fetch_add(1); }));
    }
    try {
      rt.wait_all();
    } catch (const std::runtime_error&) {
    }
  }

  EXPECT_EQ(siblings.load(), kRounds * 4);
  const PoolStats mid = rt.pool_stats();
  EXPECT_GE(mid.handoffs, 1u);  // the storms really exercised the handoff
  // Balanced ledger: every spare the storms spawned retires after the
  // grace, and the live count settles back to the base workers.
  EXPECT_TRUE(eventually([&] {
    const PoolStats s = rt.pool_stats();
    return s.live_threads == 2 && s.idle_spares == 0;
  })) << "pool did not deflate: live_threads="
      << rt.pool_stats().live_threads
      << " idle_spares=" << rt.pool_stats().idle_spares;
  const PoolStats end = rt.pool_stats();
  EXPECT_EQ(end.spares_spawned, end.spares_retired);

  // And the deflated pool still runs work.
  std::atomic<int> after{0};
  for (int i = 0; i < 8; ++i) {
    rt.spawn(sigrt::task([&] { after.fetch_add(1); }));
  }
  rt.wait_all();
  EXPECT_EQ(after.load(), 8);
}

// --- topology probe -------------------------------------------------------

/// Writes one small sysfs-style file, creating parent directories.
void put_file(const std::filesystem::path& p, const std::string& contents) {
  std::filesystem::create_directories(p.parent_path());
  std::FILE* f = std::fopen(p.c_str(), "w");
  ASSERT_NE(f, nullptr) << p;
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
}

/// Fabricates a two-package tree: package 0 holds cpus 0,1 as SMT siblings
/// of one core; package 1 holds cpus 2,3 as two distinct cores.  Each
/// package shares an L3; every cpu has a private 512K L2.
std::filesystem::path make_fake_sysfs() {
  const auto root = std::filesystem::path(::testing::TempDir()) /
                    "sigrt_topo_sysfs";
  std::filesystem::remove_all(root);
  const auto base = root / "devices/system/cpu";
  put_file(base / "online", "0-3\n");
  struct Cpu {
    unsigned pkg, core;
    const char* l3_shared;
  };
  const Cpu cpus[4] = {{0, 0, "0-1"}, {0, 0, "0-1"}, {1, 0, "2-3"},
                       {1, 1, "2-3"}};
  for (unsigned c = 0; c < 4; ++c) {
    const auto dir = base / ("cpu" + std::to_string(c));
    put_file(dir / "topology/physical_package_id",
             std::to_string(cpus[c].pkg) + "\n");
    put_file(dir / "topology/core_id", std::to_string(cpus[c].core) + "\n");
    put_file(dir / "cache/index0/level", "1\n");
    put_file(dir / "cache/index0/type", "Data\n");
    put_file(dir / "cache/index0/size", "48K\n");
    put_file(dir / "cache/index0/shared_cpu_list", std::to_string(c) + "\n");
    // Index numbering is dense in sysfs (the probe stops at the first
    // missing indexN), so the instruction L1 must be present even though
    // the probe skips it.
    put_file(dir / "cache/index1/level", "1\n");
    put_file(dir / "cache/index1/type", "Instruction\n");
    put_file(dir / "cache/index1/size", "32K\n");
    put_file(dir / "cache/index1/shared_cpu_list", std::to_string(c) + "\n");
    put_file(dir / "cache/index2/level", "2\n");
    put_file(dir / "cache/index2/type", "Unified\n");
    put_file(dir / "cache/index2/size", "512K\n");
    put_file(dir / "cache/index2/shared_cpu_list", std::to_string(c) + "\n");
    put_file(dir / "cache/index3/level", "3\n");
    put_file(dir / "cache/index3/type", "Unified\n");
    put_file(dir / "cache/index3/size", "8192K\n");
    put_file(dir / "cache/index3/shared_cpu_list",
             std::string(cpus[c].l3_shared) + "\n");
  }
  return root;
}

TEST(Topology, ProbeParsesAFabricatedSysfsTree) {
  const auto root = make_fake_sysfs();
  const sigrt::topo::Topology t = sigrt::topo::probe(root.string());

  EXPECT_TRUE(t.from_sysfs);
  ASSERT_EQ(t.cpu_count(), 4u);
  EXPECT_EQ(t.packages, 2u);
  EXPECT_EQ(t.cores, 3u);       // cpus 0,1 share one; 2 and 3 are distinct
  EXPECT_EQ(t.llc_groups, 2u);  // one L3 per package
  EXPECT_EQ(t.l2_bytes, 512u * 1024u);
  EXPECT_EQ(t.llc_bytes, 8192u * 1024u);

  // Distance tiers: SMT sibling < shared-LLC core < remote package.
  EXPECT_EQ(t.worker_distance(0, 1), 0u);
  EXPECT_EQ(t.worker_distance(2, 3), 1u);
  EXPECT_EQ(t.worker_distance(0, 2), 3u);

  // Nearest-first victim order from worker 0: the SMT sibling leads, the
  // remote package trails; near_victims marks the cache-sharing prefix.
  const std::vector<unsigned> order = t.steal_order(0, 4);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(t.near_victims(0, 4), 1u);

  std::filesystem::remove_all(root);
}

TEST(Topology, ProbeFallsBackFlatWhenSysfsIsMissing) {
  const sigrt::topo::Topology t = sigrt::topo::probe("/nonexistent_sysfs");
  EXPECT_FALSE(t.from_sysfs);
  EXPECT_GE(t.cpu_count(), 1u);
  EXPECT_EQ(t.packages, 1u);
  EXPECT_EQ(t.llc_groups, 1u);
  // Flat model: every distinct pair sits at tier 1 (no near/far split).
  if (t.cpu_count() >= 2) EXPECT_EQ(t.worker_distance(0, 1), 1u);
}

TEST(Topology, StealOrderIsAPermutationOfAllOtherWorkersAtAnyCount) {
  const auto root = make_fake_sysfs();
  const sigrt::topo::Topology t = sigrt::topo::probe(root.string());
  // Worker counts both under and over the cpu count (oversubscription
  // wraps workers onto cpus round-robin).
  for (unsigned workers : {2u, 3u, 4u, 7u}) {
    for (unsigned self = 0; self < workers; ++self) {
      const std::vector<unsigned> order = t.steal_order(self, workers);
      ASSERT_EQ(order.size(), workers - 1) << "self=" << self;
      std::vector<bool> seen(workers, false);
      for (unsigned v : order) {
        ASSERT_LT(v, workers);
        EXPECT_NE(v, self);
        EXPECT_FALSE(seen[v]) << "duplicate victim " << v;
        seen[v] = true;
      }
      // Distances never decrease along the order (nearest-first).
      for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_LE(t.worker_distance(self, order[i - 1]),
                  t.worker_distance(self, order[i]));
      }
      EXPECT_LE(t.near_victims(self, workers), order.size());
    }
  }
  std::filesystem::remove_all(root);
}

}  // namespace
