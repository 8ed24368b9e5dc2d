// Runtime facade tests: spawning, barriers, dependence enforcement, groups,
// inline vs threaded execution, wait_on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "core/sigrt.hpp"

namespace {

using sigrt::ExecutionKind;
using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

RuntimeConfig inline_config(PolicyKind p = PolicyKind::Agnostic) {
  RuntimeConfig c;
  c.workers = 0;  // deterministic inline execution
  c.policy = p;
  return c;
}

RuntimeConfig threaded_config(unsigned workers,
                              PolicyKind p = PolicyKind::Agnostic) {
  RuntimeConfig c;
  c.workers = workers;
  c.policy = p;
  return c;
}

TEST(Runtime, ExecutesSpawnedTask) {
  Runtime rt(inline_config());
  int x = 0;
  rt.spawn(sigrt::task([&] { x = 42; }));
  rt.wait_all();
  EXPECT_EQ(x, 42);
}

TEST(Runtime, ThreadedExecutesAllTasks) {
  Runtime rt(threaded_config(4));
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    rt.spawn(sigrt::task([&] { count.fetch_add(1); }));
  }
  rt.wait_all();
  EXPECT_EQ(count.load(), 500);
}

TEST(Runtime, SpawnWithoutBodyThrows) {
  Runtime rt(inline_config());
  sigrt::TaskOptions opts;
  EXPECT_THROW(rt.spawn(std::move(opts)), std::invalid_argument);
}

TEST(Runtime, DependenciesOrderProducerBeforeConsumer) {
  Runtime rt(threaded_config(4));
  alignas(1024) static int shared[256];
  std::atomic<bool> produced{false};
  std::atomic<bool> consumer_saw_produced{false};
  rt.spawn(sigrt::task([&] {
             shared[0] = 7;
             produced.store(true);
           })
               .out(shared, 256));
  rt.spawn(sigrt::task([&] {
             consumer_saw_produced.store(produced.load());
           })
               .in(shared, 256));
  rt.wait_all();
  EXPECT_TRUE(consumer_saw_produced.load());
}

TEST(Runtime, DependencyChainRunsInOrder) {
  Runtime rt(threaded_config(4));
  alignas(1024) static double cell[128];
  std::vector<int> order;
  std::mutex m;
  for (int i = 0; i < 16; ++i) {
    rt.spawn(sigrt::task([&, i] {
               std::lock_guard lock(m);
               order.push_back(i);
             })
                 .inout(cell, 128));
  }
  rt.wait_all();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Runtime, IndependentTasksAllComplete) {
  Runtime rt(threaded_config(8));
  std::vector<int> results(200, 0);
  for (int i = 0; i < 200; ++i) {
    rt.spawn(sigrt::task([&results, i] { results[static_cast<std::size_t>(i)] = i + 1; }));
  }
  rt.wait_all();
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(Runtime, WaitGroupOnlyWaitsButFlushesEverything) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto a = rt.create_group("a", 1.0);
  const auto b = rt.create_group("b", 1.0);
  int ran_a = 0;
  int ran_b = 0;
  rt.spawn(sigrt::task([&] { ++ran_a; }).group(a));
  rt.spawn(sigrt::task([&] { ++ran_b; }).group(b));
  rt.wait_group(a);
  EXPECT_EQ(ran_a, 1);
  rt.wait_all();
  EXPECT_EQ(ran_b, 1);
}

TEST(Runtime, GroupReportCountsOutcomes) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 0.5);
  int approx_runs = 0;
  for (int i = 0; i < 10; ++i) {
    rt.spawn(sigrt::task([] {})
                 .approx([&] { ++approx_runs; })
                 .significance(0.1 + 0.08 * i)
                 .group(g));
  }
  rt.wait_group(g);
  const auto r = rt.group_report(g);
  EXPECT_EQ(r.accurate, 5u);
  EXPECT_EQ(r.approximate, 5u);
  EXPECT_EQ(r.dropped, 0u);
  EXPECT_EQ(approx_runs, 5);
}

TEST(Runtime, TaskWithoutApproxFunIsDropped) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 0.0);
  int runs = 0;
  for (int i = 0; i < 8; ++i) {
    rt.spawn(sigrt::task([&] { ++runs; }).significance(0.5).group(g));
  }
  rt.wait_group(g);
  EXPECT_EQ(runs, 0);
  const auto r = rt.group_report(g);
  EXPECT_EQ(r.dropped, 8u);
}

TEST(Runtime, SpecialSignificanceOneAlwaysAccurate) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 0.0);  // ratio 0: approximate everything
  int accurate_runs = 0;
  int approx_runs = 0;
  for (int i = 0; i < 5; ++i) {
    rt.spawn(sigrt::task([&] { ++accurate_runs; })
                 .approx([&] { ++approx_runs; })
                 .significance(1.0)
                 .group(g));
  }
  rt.wait_group(g);
  EXPECT_EQ(accurate_runs, 5);
  EXPECT_EQ(approx_runs, 0);
}

TEST(Runtime, SpecialSignificanceZeroAlwaysApproximate) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 1.0);  // ratio 1: accurate everything
  int accurate_runs = 0;
  int approx_runs = 0;
  for (int i = 0; i < 5; ++i) {
    rt.spawn(sigrt::task([&] { ++accurate_runs; })
                 .approx([&] { ++approx_runs; })
                 .significance(0.0)
                 .group(g));
  }
  rt.wait_group(g);
  EXPECT_EQ(accurate_runs, 0);
  EXPECT_EQ(approx_runs, 5);
}

TEST(Runtime, SignificanceIsClampedToUnitInterval) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 1.0);
  int approx_runs = 0;
  rt.spawn(sigrt::task([] {}).approx([&] { ++approx_runs; }).significance(-3.0).group(g));
  rt.wait_group(g);
  EXPECT_EQ(approx_runs, 1);  // clamped to 0.0 => unconditionally approximate
}

TEST(Runtime, WaitOnBlocksUntilWriterFinishes) {
  Runtime rt(threaded_config(2));
  alignas(1024) static int data[256];
  std::atomic<bool> writer_done{false};
  rt.spawn(sigrt::task([&] {
             data[3] = 9;
             writer_done.store(true);
           })
               .out(data, 256));
  rt.wait_on(data, sizeof(data));
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(data[3], 9);
  rt.wait_all();
}

TEST(Runtime, WaitOnIsExcludedFromGroupAccounting) {
  Runtime rt(inline_config());
  alignas(1024) static int data[16];
  rt.spawn(sigrt::task([&] { data[0] = 1; }).out(data, 16));
  rt.wait_on(data, sizeof(data));
  const auto r = rt.group_report(sigrt::kDefaultGroup);
  EXPECT_EQ(r.accurate, 1u);  // only the user task is counted
}

TEST(Runtime, EnsureGroupKeepsExistingRatio) {
  Runtime rt(inline_config());
  const auto g1 = rt.create_group("g", 0.3);
  const auto g2 = rt.ensure_group("g");
  EXPECT_EQ(g1, g2);
  EXPECT_DOUBLE_EQ(rt.group(g1).ratio(), 0.3);
}

TEST(Runtime, CreateGroupRetargetsRatio) {
  Runtime rt(inline_config());
  const auto g1 = rt.create_group("g", 0.3);
  const auto g2 = rt.create_group("g", 0.9);
  EXPECT_EQ(g1, g2);
  EXPECT_DOUBLE_EQ(rt.group(g1).ratio(), 0.9);
}

TEST(Runtime, UnknownGroupThrows) {
  Runtime rt(inline_config());
  EXPECT_THROW(rt.group_report(999), std::out_of_range);
}

TEST(Runtime, StatsAggregateAcrossGroups) {
  Runtime rt(inline_config(PolicyKind::GTBMaxBuffer));
  const auto a = rt.create_group("a", 1.0);
  const auto b = rt.create_group("b", 0.0);
  for (int i = 0; i < 4; ++i) {
    rt.spawn(sigrt::task([] {}).significance(0.5).group(a));
    rt.spawn(sigrt::task([] {}).approx([] {}).significance(0.5).group(b));
  }
  rt.wait_all();
  const auto s = rt.stats();
  EXPECT_EQ(s.spawned, 8u);
  EXPECT_EQ(s.accurate, 4u);
  EXPECT_EQ(s.approximate, 4u);
}

TEST(Runtime, ActivityAdvancesWithWork) {
  Runtime rt(threaded_config(2));
  const auto before = rt.activity_now();
  for (int i = 0; i < 50; ++i) {
    rt.spawn(sigrt::task([] {
      volatile double x = 1.0;
      for (int j = 0; j < 20000; ++j) x = x * 1.0000001 + 0.5;
    }));
  }
  rt.wait_all();
  const auto after = rt.activity_now();
  EXPECT_GT(after.wall_s, before.wall_s);
  EXPECT_GT(after.busy_s, before.busy_s);
}

TEST(Runtime, ManyWaitsInterleavedWithSpawns) {
  Runtime rt(threaded_config(4, PolicyKind::GTB));
  const auto g = rt.create_group("g", 0.5);
  std::atomic<int> runs{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      rt.spawn(sigrt::task([&] { runs.fetch_add(1); })
                   .approx([&] { runs.fetch_add(1); })
                   .significance(0.1 + 0.08 * i)
                   .group(g));
    }
    rt.wait_group(g);
  }
  EXPECT_EQ(runs.load(), 200);
}

TEST(Runtime, NoStealConfigurationStillCompletes) {
  RuntimeConfig c = threaded_config(3);
  c.steal = false;
  Runtime rt(c);
  std::atomic<int> runs{0};
  for (int i = 0; i < 100; ++i) {
    rt.spawn(sigrt::task([&] { runs.fetch_add(1); }));
  }
  rt.wait_all();
  EXPECT_EQ(runs.load(), 100);
}

TEST(Runtime, DestructorDrainsOutstandingTasks) {
  std::atomic<int> runs{0};
  {
    Runtime rt(threaded_config(2));
    for (int i = 0; i < 64; ++i) {
      rt.spawn(sigrt::task([&] { runs.fetch_add(1); }));
    }
    // no wait_all: the destructor must flush and drain
  }
  EXPECT_EQ(runs.load(), 64);
}

TEST(Runtime, TwoPredecessorSpawnRaceDoesNotDoubleExecute) {
  // Regression: a task with >= 2 unfinished predecessors whose completions
  // land inside the spawn's registration window used to drain the gate's
  // two holds and double-enqueue the task (executing it twice and
  // underflowing the pending counters -> barrier deadlock).  The layout
  // below guarantees multi-predecessor tasks: ping/pong are carved from one
  // allocation, so a writer's slice shares dependence blocks both with its
  // neighbor writer and with the other buffer's readers.
  constexpr std::size_t kN = 1024;
  constexpr std::size_t kSlice = 64;
  std::vector<double> arena(2 * kN);
  double* ping = arena.data();
  double* pong = arena.data() + kN;

  Runtime rt(threaded_config(1));
  const auto g = rt.create_group("sweeps", 1.0);
  std::atomic<std::uint64_t> executions{0};
  std::uint64_t spawned = 0;

  for (int sweep = 0; sweep < 120; ++sweep) {
    double* src = sweep % 2 == 0 ? ping : pong;
    double* dst = sweep % 2 == 0 ? pong : ping;
    for (std::size_t s = 0; s < kN / kSlice; ++s) {
      double* out = dst + s * kSlice;
      rt.spawn(sigrt::task([&executions, out] {
                 executions.fetch_add(1);
                 out[0] += 1.0;
               })
                   .group(g)
                   .in(src, kN)
                   .out(out, kSlice));
      ++spawned;
    }
    rt.wait_group(g);
  }
  EXPECT_EQ(executions.load(), spawned);
  const auto r = rt.group_report(g);
  EXPECT_EQ(r.accurate, spawned);
}

TEST(Runtime, DiamondDependencyPattern) {
  Runtime rt(threaded_config(4));
  alignas(1024) static double a[128], b[128], c[128];
  std::vector<int> log;
  std::mutex m;
  auto note = [&](int id) {
    std::lock_guard lock(m);
    log.push_back(id);
  };
  rt.spawn(sigrt::task([&] { note(0); }).out(a, 128));                  // source
  rt.spawn(sigrt::task([&] { note(1); }).in(a, 128).out(b, 128));       // left
  rt.spawn(sigrt::task([&] { note(2); }).in(a, 128).out(c, 128));       // right
  rt.spawn(sigrt::task([&] { note(3); }).in(b, 128).in(c, 128));        // sink
  rt.wait_all();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.front(), 0);
  EXPECT_EQ(log.back(), 3);
}

// Multi-spawner id-uniqueness oracle: concurrent spawners (serve
// dispatchers, user threads, task bodies) must never mint duplicate
// TaskIds — ids key the deterministic stream_rng fault stream and task-log
// attribution.  The single-writer load+store this replaces loses ids under
// exactly this interleaving.
TEST(Runtime, ConcurrentSpawnersMintUniqueTaskIds) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  Runtime rt(threaded_config(2));
  std::mutex mu;
  std::vector<sigrt::TaskId> ids;
  ids.reserve(kThreads * kPerThread);

  std::vector<std::thread> spawners;
  spawners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    spawners.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        rt.spawn(sigrt::task([&] {
          const sigrt::TaskId id = sigrt::current_task_id();
          std::lock_guard lock(mu);
          ids.push_back(id);
        }));
      }
    });
  }
  for (auto& t : spawners) t.join();
  rt.wait_all();

  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), 0u);
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate task id minted by concurrent spawners";
}

// Accounting invariant: after a barrier, every group report must satisfy
// spawned == accurate + approximate + dropped, for every policy — an
// Undecided completion (or an internal fence slipping into `spawned`)
// breaks it silently.
TEST(Runtime, GroupReportInvariantHoldsAcrossPolicies) {
  const PolicyKind kPolicies[] = {PolicyKind::Agnostic, PolicyKind::GTB,
                                  PolicyKind::GTBMaxBuffer, PolicyKind::LQH};
  for (const PolicyKind policy : kPolicies) {
    for (const unsigned workers : {0u, 2u}) {
      std::atomic<int> zero_sig_approx{0};
      Runtime rt(threaded_config(workers, policy));
      const auto g = rt.create_group("mix", 0.5);
      alignas(1024) static int data[64];
      for (int i = 0; i < 40; ++i) {
        auto b = sigrt::task([] {}).significance((i % 10) / 10.0).group(g);
        if (i % 2 == 0) {  // odd tasks drop when approximated
          const bool zero_sig = i % 10 == 0;
          b.approx([&zero_sig_approx, zero_sig] {
            if (zero_sig) zero_sig_approx.fetch_add(1);
          });
        }
        rt.spawn(std::move(b));
      }
      rt.spawn(sigrt::task([] { data[0] = 1; }).out(data, 64).group(g));
      rt.wait_on(data, sizeof(data));  // internal fence: excluded everywhere
      rt.wait_group(g);
      const auto r = rt.group_report(g);
      EXPECT_EQ(r.spawned, 41u) << sigrt::to_string(policy);
      EXPECT_EQ(r.spawned, r.accurate + r.approximate + r.dropped)
          << sigrt::to_string(policy) << " workers=" << workers;
      const auto def = rt.group_report(sigrt::kDefaultGroup);
      EXPECT_EQ(def.spawned, def.accurate + def.approximate + def.dropped)
          << "fence leaked into default-group spawned count";
      if (policy == PolicyKind::Agnostic) {
        // No decision point: every task runs its accurate body.
        EXPECT_EQ(r.accurate, r.spawned) << "workers=" << workers;
        EXPECT_EQ(zero_sig_approx.load(), 0) << "workers=" << workers;
      } else {
        // Significance 0.0 is approximate under every deciding policy.
        EXPECT_EQ(zero_sig_approx.load(), 4)
            << sigrt::to_string(policy) << " workers=" << workers;
      }
    }
  }
}

}  // namespace
