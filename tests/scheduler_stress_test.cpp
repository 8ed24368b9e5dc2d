// Stress tests for the lock-free work-stealing scheduler core: high task
// counts across many workers with stealing enabled, exact accounting, the
// NTC deque-partition invariant under churn, the batched enqueue path, and
// the same workload under the deterministic inline mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "core/sigrt.hpp"
#include "scheduler_test_util.hpp"

namespace {

using sigrt::Scheduler;
using sigrt::Task;
using sigrt::TaskRef;
using sigrt::test::exec_thunk;
using sigrt::test::make_ready_task;

void wait_until(const std::atomic<std::uint64_t>& counter, std::uint64_t target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (counter.load(std::memory_order_acquire) < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// SchedulerStats are approximate while workers run (a worker bumps its
// executed counter after the execute callback returns), so convergence to
// the exact total needs its own bounded wait.
void wait_for_executed(const Scheduler& s, std::uint64_t target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (s.stats().executed < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(SchedulerStress, HundredThousandTasksAcrossEightWorkers) {
  constexpr std::uint64_t kTasks = 100000;
  constexpr unsigned kWorkers = 8;
  std::atomic<std::uint64_t> runs{0};
  {
    auto fn = [&](Task& t, unsigned) {
      t.accurate();
      runs.fetch_add(1, std::memory_order_acq_rel);
    };
    Scheduler s(kWorkers, 0, /*steal=*/true, &fn, exec_thunk(fn));
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      // A sprinkle of heavier tasks induces imbalance so stealing must
      // engage even under perfectly even initial routing.
      if (i % 97 == 0) {
        s.enqueue(make_ready_task([] {
          volatile double x = 1.0;
          for (int j = 0; j < 20000; ++j) x = x * 1.0000001 + 0.1;
        }));
      } else {
        s.enqueue(make_ready_task([] {}));
      }
    }
    wait_until(runs, kTasks);
    EXPECT_EQ(runs.load(), kTasks);
    wait_for_executed(s, kTasks);
    const auto stats = s.stats();
    EXPECT_EQ(stats.executed, kTasks);  // nothing lost, nothing duplicated
    EXPECT_GT(stats.steals, 0u);
    EXPECT_GT(stats.busy_ns, 0);
  }  // destructor: workers parked on slot Parkers must release cleanly
}

TEST(SchedulerStress, BulkEnqueuePublishesEveryTaskExactlyOnce) {
  constexpr std::uint64_t kBatches = 200;
  constexpr std::uint64_t kBatchSize = 512;
  std::atomic<std::uint64_t> runs{0};
  {
    auto fn = [&](Task& t, unsigned) {
      t.accurate();
      runs.fetch_add(1, std::memory_order_acq_rel);
    };
    Scheduler s(8, 0, /*steal=*/true, &fn, exec_thunk(fn));
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      std::vector<TaskRef> window;
      window.reserve(kBatchSize);
      for (std::uint64_t i = 0; i < kBatchSize; ++i) {
        // Alternate partitions inside one window: Accurate stays on the
        // reliable-only deques, Approximate may go anywhere.
        window.push_back(make_ready_task(
            [] {}, i % 2 == 0 ? sigrt::ExecutionKind::Accurate
                              : sigrt::ExecutionKind::Approximate));
      }
      s.enqueue_bulk(window);
    }
    wait_until(runs, kBatches * kBatchSize);
    EXPECT_EQ(runs.load(), kBatches * kBatchSize);
    wait_for_executed(s, kBatches * kBatchSize);
    EXPECT_EQ(s.stats().executed, kBatches * kBatchSize);
  }
}

TEST(SchedulerStress, PartitionRuleHoldsUnderChurn) {
  // 8 workers, 3 of them NTC.  Accurate tasks must never execute on an
  // unreliable worker, no matter how aggressively inboxes are raided and
  // deques are stolen from.
  constexpr std::uint64_t kTasks = 60000;
  std::atomic<std::uint64_t> runs{0};
  std::atomic<std::uint64_t> violations{0};
  {
    auto fn = [&](Task& t, unsigned w) {
      if (t.kind == sigrt::ExecutionKind::Accurate && w >= 5) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
      t.accurate();
      runs.fetch_add(1, std::memory_order_acq_rel);
    };
    Scheduler s(8, 3, /*steal=*/true, &fn, exec_thunk(fn));
    EXPECT_EQ(s.unreliable_count(), 3u);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      s.enqueue(make_ready_task([] {},
                                i % 3 == 0 ? sigrt::ExecutionKind::Approximate
                                           : sigrt::ExecutionKind::Accurate));
    }
    wait_until(runs, kTasks);
    EXPECT_EQ(runs.load(), kTasks);
    EXPECT_EQ(violations.load(), 0u);
  }
}

TEST(SchedulerStress, InlineModeIsDeterministic) {
  // The same 100k-task workload in inline mode: synchronous, in order, no
  // steals — the deterministic twin used to debug scheduler-level issues.
  constexpr std::uint64_t kTasks = 100000;
  std::uint64_t runs = 0;
  std::uint64_t order_check = 0;
  bool in_order = true;
  auto fn = [&](Task& t, unsigned w) {
    EXPECT_EQ(w, 0u);
    t.accurate();
    ++runs;
  };
  Scheduler s(0, 0, /*steal=*/true, &fn, exec_thunk(fn));
  EXPECT_TRUE(s.inline_mode());
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    s.enqueue(make_ready_task([&, i] {
      if (order_check != i) in_order = false;
      ++order_check;
    }));
  }
  EXPECT_EQ(runs, kTasks);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(s.stats().executed, kTasks);
  EXPECT_EQ(s.stats().steals, 0u);
}

TEST(SchedulerStress, RuntimeLevelStressWithDependentsAndPolicies) {
  // End-to-end churn through the runtime facade: LQH classification at
  // dequeue, batched dependent release, and barrier interleavings.
  sigrt::RuntimeConfig c;
  c.workers = 8;
  c.policy = sigrt::PolicyKind::LQH;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  const auto g = rt.create_group("stress", 0.5);
  std::atomic<std::uint64_t> runs{0};
  constexpr int kRounds = 20;
  constexpr int kPerRound = 2000;
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kPerRound; ++i) {
      rt.spawn(sigrt::task([&] { runs.fetch_add(1, std::memory_order_relaxed); })
                   .approx([&] { runs.fetch_add(1, std::memory_order_relaxed); })
                   .significance(static_cast<double>(i % 9 + 1) / 10.0)
                   .group(g));
    }
    rt.wait_group(g);
  }
  EXPECT_EQ(runs.load(), static_cast<std::uint64_t>(kRounds) * kPerRound);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.spawned, static_cast<std::uint64_t>(kRounds) * kPerRound);
}

}  // namespace
