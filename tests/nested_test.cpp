// Nested-parallelism tests: any-thread spawn, in-task taskwait (helping
// barrier), recursive fan-out at several worker counts, group barriers
// issued from inside task bodies, nested spawn under a buffering policy,
// and the same barrier loop entered from plain (non-task) threads.  This suite runs under TSan in CI — it is the data-race gate
// for the multi-spawner runtime contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parker.hpp"
#include "core/sigrt.hpp"

namespace {

using sigrt::ExecutionKind;
using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

RuntimeConfig workers_config(unsigned workers,
                             PolicyKind p = PolicyKind::Agnostic) {
  RuntimeConfig c;
  c.workers = workers;
  c.policy = p;
  return c;
}

std::uint64_t fib_iterative(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

// Divide-and-conquer fib: every interior node spawns two children and
// issues an in-task taskwait before combining — the workload shape the
// old single-spawner contract could not express at all.
void fib_task(Runtime& rt, int n, int cutoff, std::uint64_t* out) {
  if (n < cutoff) {
    *out = fib_iterative(n);
    return;
  }
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  rt.spawn(sigrt::task([&rt, n, cutoff, &a] { fib_task(rt, n - 1, cutoff, &a); }));
  rt.spawn(sigrt::task([&rt, n, cutoff, &b] { fib_task(rt, n - 2, cutoff, &b); }));
  rt.wait_all();  // in-task: barriers on this task's two children
  *out = a + b;
}

class NestedFib : public ::testing::TestWithParam<unsigned> {};

TEST_P(NestedFib, RecursiveFibWithInTaskTaskwait) {
  // Depth >= 20 levels of nested spawn+taskwait (n - cutoff = 20).
  constexpr int kN = 32;
  constexpr int kCutoff = 12;
  Runtime rt(workers_config(GetParam()));
  std::uint64_t result = 0;
  rt.spawn(sigrt::task(
      [&rt, &result] { fib_task(rt, kN, kCutoff, &result); }));
  rt.wait_all();
  EXPECT_EQ(result, fib_iterative(kN));
}

INSTANTIATE_TEST_SUITE_P(WorkerSweep, NestedFib,
                         ::testing::Values(0u, 1u, 2u, 8u));

class NestedFanOut : public ::testing::TestWithParam<unsigned> {};

// K-ary fan-out with a taskwait at every level: stresses many concurrent
// helping barriers (every interior node of the tree is simultaneously a
// worker, a spawner and a waiter).
TEST_P(NestedFanOut, FanOutWithBarrierAtEveryDepth) {
  constexpr int kArity = 4;
  constexpr int kDepth = 6;  // (4^7 - 1) / 3 = 5461 tasks
  Runtime rt(workers_config(GetParam()));
  std::atomic<std::uint64_t> nodes{0};

  struct Node {
    static void run(Runtime& rt, std::atomic<std::uint64_t>& count, int depth) {
      count.fetch_add(1, std::memory_order_relaxed);
      if (depth == 0) return;
      for (int k = 0; k < kArity; ++k) {
        rt.spawn(sigrt::task(
            [&rt, &count, depth] { run(rt, count, depth - 1); }));
      }
      rt.wait_all();  // in-task: children-only barrier
    }
  };

  rt.spawn(sigrt::task([&rt, &nodes] { Node::run(rt, nodes, kDepth); }));
  rt.wait_all();

  std::uint64_t expected = 0;
  std::uint64_t level = 1;
  for (int d = 0; d <= kDepth; ++d, level *= kArity) expected += level;
  EXPECT_EQ(nodes.load(), expected);
  const auto r = rt.group_report(sigrt::kDefaultGroup);
  EXPECT_EQ(r.spawned, expected);
  EXPECT_EQ(r.spawned, r.accurate + r.approximate + r.dropped);
}

INSTANTIATE_TEST_SUITE_P(WorkerSweep, NestedFanOut,
                         ::testing::Values(1u, 2u, 8u));

TEST(Nested, InTaskTaskwaitWaitsChildrenNotSiblings) {
  // Two sibling tasks each spawn a child and taskwait.  With global
  // pending==0 semantics both siblings would deadlock; with children-only
  // semantics each proceeds as soon as its own child finished.
  Runtime rt(workers_config(2));
  std::atomic<int> done{0};
  for (int s = 0; s < 2; ++s) {
    rt.spawn(sigrt::task([&rt, &done] {
      std::atomic<bool> child_done{false};
      rt.spawn(sigrt::task([&child_done] { child_done.store(true); }));
      rt.wait_all();  // must only wait for OUR child
      EXPECT_TRUE(child_done.load());
      done.fetch_add(1);
    }));
  }
  rt.wait_all();
  EXPECT_EQ(done.load(), 2);
}

TEST(Nested, InTaskWaitGroupQuiescesOtherGroup) {
  Runtime rt(workers_config(2));
  const auto inner = rt.create_group("inner", 1.0);
  std::atomic<int> inner_done{0};
  std::atomic<bool> checked{false};
  rt.spawn(sigrt::task([&] {
    for (int i = 0; i < 8; ++i) {
      rt.spawn(sigrt::task([&inner_done] { inner_done.fetch_add(1); })
                   .group(inner));
    }
    rt.wait_group(inner);  // in-task group barrier from a worker
    EXPECT_EQ(inner_done.load(), 8);
    checked.store(true);
  }));
  rt.wait_all();
  EXPECT_TRUE(checked.load());
  const auto r = rt.group_report(inner);
  EXPECT_EQ(r.spawned, 8u);
  EXPECT_EQ(r.spawned, r.accurate + r.approximate + r.dropped);
}

TEST(Nested, InTaskSameGroupWaitGroupThrows) {
  // ROADMAP carry-over deadlock shape: a task of group g calling
  // wait_group(g) stays pending in g until its own body returns, so the
  // barrier can never open once a second member does the same.  The
  // runtime now detects the shape at the wait and throws instead of
  // spinning forever in the helping loop.
  Runtime rt(workers_config(2));
  const auto g = rt.create_group("self", 1.0);
  std::atomic<bool> threw{false};
  rt.spawn(sigrt::task([&] {
             try {
               rt.wait_group(g);  // same group as the calling task
             } catch (const std::logic_error&) {
               threw.store(true);
             }
           })
               .group(g));
  rt.wait_all();
  EXPECT_TRUE(threw.load());

  // The classic two-waiter deadlock: both members throw rather than hang,
  // and the error surfaces at the top-level barrier as usual.
  std::atomic<int> threw_count{0};
  for (int i = 0; i < 2; ++i) {
    rt.spawn(sigrt::task([&] {
               try {
                 rt.wait_group(g);
               } catch (const std::logic_error&) {
                 threw_count.fetch_add(1);
               }
             })
                 .group(g));
  }
  rt.wait_all();
  EXPECT_EQ(threw_count.load(), 2);

  // Waiting on a DIFFERENT group from inside a task stays legal (covered
  // further by InTaskWaitGroupQuiescesOtherGroup).
  const auto other = rt.create_group("other", 1.0);
  std::atomic<bool> ok{false};
  rt.spawn(sigrt::task([&] {
             rt.spawn(sigrt::task([] {}).group(other));
             rt.wait_group(other);
             ok.store(true);
           })
               .group(g));
  rt.wait_all();
  EXPECT_TRUE(ok.load());
}

TEST(Nested, InTaskWaitOnWaitsRangeWriters) {
  Runtime rt(workers_config(2));
  alignas(1024) static int data[256];
  data[7] = 0;
  std::atomic<bool> checked{false};
  rt.spawn(sigrt::task([&] {
    rt.spawn(sigrt::task([] { data[7] = 99; }).out(data, 256));
    rt.wait_on(data, sizeof(data));  // helping, not blocking
    EXPECT_EQ(data[7], 99);
    checked.store(true);
  }));
  rt.wait_all();
  EXPECT_TRUE(checked.load());
}

class NestedWaitOnRemoteWriter : public ::testing::TestWithParam<PolicyKind> {};

// An in-task wait_on whose writer is already running on another worker
// leaves the waiter nothing to help, so it parks.  A sibling child stays
// pending on a third worker until the wait returns, so the fence is never
// the waiter's last child: only the fence body's own notify can wake an
// untimed (LQH) park.  GTB with a one-task window releases every spawn at
// once and parks with a timeout.
TEST_P(NestedWaitOnRemoteWriter, InTaskWaitOnReturnsWithTheWrittenValue) {
  RuntimeConfig c = workers_config(3, GetParam());
  c.gtb_buffer = 1;
  Runtime rt(c);
  alignas(1024) static int cell[256];
  cell[7] = 0;
  std::atomic<bool> writer_started{false};
  std::atomic<bool> sibling_started{false};
  std::atomic<bool> waited{false};
  std::atomic<bool> sibling_gave_up{false};
  int seen = 0;

  const auto sibling = [&] {
    sibling_started.store(true);
    // Bounded, so a missed wake fails instead of hanging the suite.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!waited.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        sibling_gave_up.store(true);
        return;
      }
      std::this_thread::yield();
    }
  };
  const auto writer = [&] {
    writer_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cell[7] = 42;
  };
  rt.spawn(sigrt::task([&] {
             rt.spawn(sigrt::task(sibling).significance(1.0));
             rt.spawn(sigrt::task(writer).significance(1.0).out(cell, 256));
             while (!writer_started.load() || !sibling_started.load()) {
               std::this_thread::yield();
             }
             rt.wait_on(cell, sizeof(cell));  // nothing left to help: parks
             seen = cell[7];
             waited.store(true);
           }).significance(1.0));
  rt.wait_all();
  EXPECT_EQ(seen, 42);
  EXPECT_FALSE(sibling_gave_up.load()) << "in-task wait_on missed its wake";
}

INSTANTIATE_TEST_SUITE_P(Policies, NestedWaitOnRemoteWriter,
                         ::testing::Values(PolicyKind::LQH, PolicyKind::GTB),
                         [](const ::testing::TestParamInfo<PolicyKind>& info) {
                           return std::string(sigrt::to_string(info.param));
                         });

// The plain-thread twin: a wait_on from outside any task body never helps;
// it parks on the thread's own waiter handle, untimed under LQH, while the
// writer runs on a worker.  Only the fence body's notify can wake it.  A
// watchdog re-notifies the handle after 10 s, so a missed wake fails the
// test instead of hanging the suite.
TEST(PlainThreadWait, WaitOnRemoteWriterWakesUntimedPark) {
  Runtime rt(workers_config(2, PolicyKind::LQH));
  alignas(1024) static int cell[256];
  cell[7] = 0;
  std::atomic<bool> writer_started{false};
  std::atomic<bool> waiting{false};
  rt.spawn(sigrt::task([&] {
             writer_started.store(true);
             while (!waiting.load()) std::this_thread::yield();
             std::this_thread::sleep_for(std::chrono::milliseconds(20));
             cell[7] = 42;
           })
               .significance(1.0)
               .out(cell, 256));
  while (!writer_started.load()) std::this_thread::yield();

  std::atomic<bool> returned{false};
  std::atomic<bool> rescued{false};
  sigrt::BarrierWaiter* const handle = sigrt::this_thread_waiter();
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!returned.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        rescued.store(true);
        handle->notify();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  waiting.store(true);
  rt.wait_on(cell, sizeof(cell));  // writer still running: parks
  returned.store(true);
  watchdog.join();
  EXPECT_EQ(cell[7], 42);
  EXPECT_FALSE(rescued.load()) << "plain-thread wait_on missed the fence's wake";
}

class NestedGtb : public ::testing::TestWithParam<unsigned> {};

// Nested spawn under a buffering policy: children spawned from a task body
// land in the (now mutex-guarded) GTB window, and the in-task taskwait's
// flush is what releases them — on every worker count, including inline.
TEST_P(NestedGtb, BufferedChildrenFlushFromInsideTask) {
  RuntimeConfig c = workers_config(GetParam(), PolicyKind::GTB);
  c.gtb_buffer = 4;  // force several mid-stream window flushes too
  Runtime rt(c);
  std::atomic<int> leaves{0};
  rt.spawn(sigrt::task([&rt, &leaves] {
    for (int i = 0; i < 10; ++i) {
      rt.spawn(sigrt::task([&leaves] { leaves.fetch_add(1); })
                   .significance(0.5)
                   .approx([&leaves] { leaves.fetch_add(1); }));
    }
    rt.wait_all();
    EXPECT_EQ(leaves.load(), 10);
  }));
  rt.wait_all();
  EXPECT_EQ(leaves.load(), 10);
  const auto r = rt.group_report(sigrt::kDefaultGroup);
  EXPECT_EQ(r.spawned, 11u);
  EXPECT_EQ(r.spawned, r.accurate + r.approximate + r.dropped);
}

INSTANTIATE_TEST_SUITE_P(WorkerSweep, NestedGtb,
                         ::testing::Values(0u, 1u, 2u, 8u));

class NestedGtbNoWait : public ::testing::TestWithParam<unsigned> {};

// Liveness regression: children spawned into a buffering policy DURING a
// barrier (the parent never taskwaits, so only the top-level barrier can
// flush them) must not hang the barrier — wait_all re-flushes on its
// timed wait, and helping loops re-flush in their backoff branch.
TEST_P(NestedGtbNoWait, UnwaitedBufferedChildrenStillFlushAtTopBarrier) {
  Runtime rt(workers_config(GetParam(), PolicyKind::GTBMaxBuffer));
  std::atomic<int> ran{0};
  rt.spawn(sigrt::task([&rt, &ran] {
    for (int i = 0; i < 3; ++i) {
      rt.spawn(sigrt::task([&ran] { ran.fetch_add(1); }));
    }
    // No in-task taskwait: the children sit in the GTB window until the
    // top-level barrier's re-flush releases them.
  }));
  rt.wait_all();
  EXPECT_EQ(ran.load(), 3);
}

INSTANTIATE_TEST_SUITE_P(WorkerSweep, NestedGtbNoWait,
                         ::testing::Values(0u, 1u, 2u, 8u));

// The wait_group twin of NestedGtbNoWait, from a plain thread: the entry
// flush releases member A, and A spawns member B into the group's GTB
// window DURING the barrier.  Only the barrier's periodic re-flush (its
// timed park under a buffering policy) can release B.  A watchdog fills
// the window after 10 s, so a missing re-flush fails instead of hanging.
TEST(PlainThreadWait, GroupMemberSpawnedDuringBarrierIsFlushed) {
  RuntimeConfig c = workers_config(2, PolicyKind::GTB);
  c.gtb_buffer = 2;  // B alone never fills the window
  Runtime rt(c);
  const auto g = rt.create_group("g", 1.0);
  std::atomic<int> ran{0};
  rt.spawn(sigrt::task([&rt, &ran, g] {
             ran.fetch_add(1);
             rt.spawn(sigrt::task([&ran] { ran.fetch_add(1); }).group(g));
           }).group(g));

  std::atomic<bool> returned{false};
  std::atomic<bool> rescued{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!returned.load()) {
      if (std::chrono::steady_clock::now() > deadline && !rescued.load()) {
        rescued.store(true);
        rt.spawn(sigrt::task([&ran] { ran.fetch_add(1); }).group(g));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  rt.wait_group(g);
  returned.store(true);
  watchdog.join();
  EXPECT_FALSE(rescued.load()) << "the barrier never re-flushed the window";
  EXPECT_EQ(ran.load(), rescued.load() ? 3 : 2);
}

TEST(Nested, ConcurrentUserThreadsSpawnSafely) {
  // The multi-spawner half of the contract without task nesting: several
  // plain user threads spawning into one runtime concurrently.
  Runtime rt(workers_config(2));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::thread> spawners;
  spawners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    spawners.emplace_back([&rt, &ran] {
      for (int i = 0; i < kPerThread; ++i) {
        rt.spawn(sigrt::task([&ran] { ran.fetch_add(1, std::memory_order_relaxed); }));
      }
    });
  }
  for (auto& t : spawners) t.join();
  rt.wait_all();
  EXPECT_EQ(ran.load(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto r = rt.group_report(sigrt::kDefaultGroup);
  EXPECT_EQ(r.spawned, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(r.spawned, r.accurate + r.approximate + r.dropped);
}

TEST(Nested, ExceptionInNestedChildReachesTopLevelWait) {
  Runtime rt(workers_config(2));
  rt.spawn(sigrt::task([&rt] {
    rt.spawn(sigrt::task([] { throw std::runtime_error("deep failure"); }));
    // No in-task wait: the error must still surface at the top barrier.
  }));
  EXPECT_THROW(rt.wait_all(), std::runtime_error);
}

TEST(Nested, BusyTimeStaysExclusiveUnderHelping) {
  // A helping taskwait re-enters execution, so the outer task's wall span
  // covers every helped child; inclusive accounting would inflate busy
  // time roughly linearly with tree depth.  Exclusive accounting keeps it
  // physically possible: busy <= workers x wall (with generous slack for
  // scheduling noise).
  Runtime rt(workers_config(2));
  // Anchor the TSC->ns calibration before the workload: CycleClock's ratio
  // is computed over the window since its first use, and a first-use
  // window of microseconds makes busy_s noise (documented in timer.hpp).
  (void)rt.stats();
  std::uint64_t result = 0;
  rt.spawn(sigrt::task([&rt, &result] { fib_task(rt, 26, 12, &result); }));
  rt.wait_all();
  EXPECT_EQ(result, fib_iterative(26));
  const auto s = rt.stats();
  EXPECT_GT(s.busy_s, 0.0);
  EXPECT_LE(s.busy_s, s.wall_s * 2.0 * 1.5);
}

TEST(Nested, SpawnThrottleRunsInlineAboveWatermarkAndStaysOffBelow) {
  // Work-first throttle: a worker whose own queue is already deeper than
  // Runtime::kSpawnInlineWatermark executes further spawns inline instead
  // of enqueueing, bounding queue memory on spawn-heavy bodies.  One
  // worker and no thieves: the body's own deque grows by one per spawn.
  const auto fan_out = [](int spawns) {
    Runtime rt(workers_config(1));
    std::atomic<int> ran{0};
    rt.spawn(sigrt::task([&rt, &ran, spawns] {
      for (int i = 0; i < spawns; ++i) {
        rt.spawn(sigrt::task([&ran] { ran.fetch_add(1); }));
      }
    }));
    rt.wait_all();
    EXPECT_EQ(ran.load(), spawns);  // inlined spawns must not be lost
    return rt.stats().inline_spawns;
  };
  constexpr int kWatermark = static_cast<int>(Runtime::kSpawnInlineWatermark);
  // Above the watermark: every spawn past depth kWatermark + 1 runs inline.
  EXPECT_EQ(fan_out(2 * kWatermark),
            static_cast<std::uint64_t>(kWatermark - 1));
  // Regression guard: a fan-out that never exceeds the watermark leaves
  // every spawn on the deque (the throttle cannot fire spuriously).
  EXPECT_EQ(fan_out(kWatermark), 0u);
}

TEST(Nested, CurrentTaskIdVisibleInsideBody) {
  Runtime rt(workers_config(1));
  EXPECT_EQ(sigrt::current_task_id(), 0u);
  std::atomic<sigrt::TaskId> seen{0};
  rt.spawn(sigrt::task([&seen] { seen.store(sigrt::current_task_id()); }));
  rt.wait_all();
  EXPECT_NE(seen.load(), 0u);
  EXPECT_EQ(sigrt::current_task_id(), 0u);
}

// Waits up to `bound` for `flag`.  A barrier that never opens would hang
// the suite, and a stuck helping loop cannot be rescued by a notify, so on
// timeout this reports and ends the process: the test fails, not hangs.
void require_within(const std::atomic<bool>& flag, std::chrono::seconds bound,
                    const char* what) {
  const auto deadline = std::chrono::steady_clock::now() + bound;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "FAILED: %s still open after %lld s\n", what,
                   static_cast<long long>(bound.count()));
      std::fflush(stderr);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// spawn() validates before it touches shared state: an in-task spawn into
// an unknown group throws std::invalid_argument inside the body, and the
// parent's taskwait still opens — no child was counted for the rejected
// spawn, so none can hold the barrier.
TEST(Nested, InTaskSpawnIntoUnknownGroupThrowsAndTaskwaitReturns) {
  Runtime rt(workers_config(2, PolicyKind::LQH));
  std::atomic<bool> threw{false};
  std::atomic<bool> waited{false};
  std::atomic<int> child_ran{0};
  rt.spawn(sigrt::task([&] {
    rt.spawn(sigrt::task([&child_ran] { child_ran.fetch_add(1); }));
    try {
      rt.spawn(sigrt::task([] {}).group(999));
    } catch (const std::invalid_argument&) {
      threw.store(true);
    }
    rt.wait_all();  // in-task: barriers on the one valid child
    waited.store(true);
  }));
  require_within(waited, std::chrono::seconds(10), "in-task wait_all");
  rt.wait_all();
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(child_ran.load(), 1);
  EXPECT_EQ(rt.stats().spawned, 2u);
}

// Barrier exactness with unwaited children.  A live parent covers its
// children in the barrier counts and hands the still-live ones to the
// direct counts when it completes; this drives that hand-off every round.
// Parents in group A spawn, without waiting: A children that each spawn an
// A grandchild, and B children.  One B child spins until the plain
// thread's wait_group(A) has returned (bounded at 2 s).  wait_group(A)
// must see every A task and return while the spinner still waits — a
// parent covering its B children under its own group unit would hold A
// open on the spinner — and the wait_all after it must see every B task.
struct ExactnessCase {
  unsigned workers;
  PolicyKind policy;
};

class NestedExactness : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(NestedExactness, UnwaitedChildrenKeepBarriersExact) {
  constexpr int kRounds = 200;
  constexpr int kParents = 3;
  constexpr int kAChildren = 2;  // each spawns one A grandchild
  constexpr int kBChildren = 2;  // parent 0's first one is the spinner
  constexpr int kATasks = kParents * (1 + 2 * kAChildren);
  constexpr int kBTasks = kParents * kBChildren;
  Runtime rt(workers_config(GetParam().workers, GetParam().policy));
  const auto a = rt.create_group("a", 0.5);
  const auto b = rt.create_group("b", 0.5);

  for (int round = 0; round < kRounds && !HasFailure(); ++round) {
    std::atomic<int> a_done{0};
    std::atomic<int> b_done{0};
    std::atomic<bool> a_returned{false};
    std::atomic<bool> spinner_done{false};
    std::atomic<bool> spinner_timed_out{false};
    // Same body accurate or approximate: every task runs one, whatever the
    // policy decides, and the counts stay exact.
    const auto count = [](std::atomic<int>& n) {
      return [&n] { n.fetch_add(1); };
    };
    for (int p = 0; p < kParents; ++p) {
      const auto parent = [&, p] {
        for (int c = 0; c < kAChildren; ++c) {
          const auto child = [&] {
            rt.spawn(sigrt::task(count(a_done))
                         .approx(count(a_done))
                         .significance(0.3)
                         .group(a));
            a_done.fetch_add(1);
          };
          rt.spawn(sigrt::task(child).approx(child).significance(0.6).group(a));
        }
        for (int c = 0; c < kBChildren; ++c) {
          if (p == 0 && c == 0) {
            const auto spinner = [&] {
              const auto deadline =
                  std::chrono::steady_clock::now() + std::chrono::seconds(2);
              while (!a_returned.load()) {
                if (std::chrono::steady_clock::now() > deadline) {
                  spinner_timed_out.store(true);
                  break;
                }
                std::this_thread::yield();
              }
              b_done.fetch_add(1);
              spinner_done.store(true);
            };
            rt.spawn(
                sigrt::task(spinner).approx(spinner).significance(0.5).group(b));
          } else {
            rt.spawn(sigrt::task(count(b_done))
                         .approx(count(b_done))
                         .significance(0.4)
                         .group(b));
          }
        }
        a_done.fetch_add(1);
      };
      rt.spawn(sigrt::task(parent).approx(parent).significance(0.9).group(a));
    }

    rt.wait_group(a);
    const bool spinner_finished_first = spinner_done.load();
    const int a_seen = a_done.load();
    a_returned.store(true);
    rt.wait_all();
    const int b_seen = b_done.load();
    // The runtime count is released last: once wait_all opens, no group
    // count still holds a completed task.
    const std::uint64_t a_left = rt.group(a).pending();
    const std::uint64_t b_left = rt.group(b).pending();

    EXPECT_EQ(a_seen, kATasks) << "wait_group(a) opened early, round " << round;
    EXPECT_FALSE(spinner_finished_first)
        << "wait_group(a) waited for a task of group b, round " << round;
    EXPECT_FALSE(spinner_timed_out.load())
        << "wait_group(a) returned only after the spinner gave up, round "
        << round;
    EXPECT_EQ(b_seen, kBTasks) << "wait_all opened early, round " << round;
    EXPECT_EQ(a_left + b_left, 0u)
        << "wait_all opened before a group count settled, round " << round;
  }
  if (HasFailure()) return;
  for (const auto& [g, tasks] :
       {std::pair{a, kATasks}, std::pair{b, kBTasks}}) {
    const auto r = rt.group_report(g);
    EXPECT_EQ(r.spawned, static_cast<std::uint64_t>(tasks) * kRounds);
    EXPECT_EQ(r.spawned, r.accurate + r.approximate + r.dropped);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndPolicies, NestedExactness,
    ::testing::Values(ExactnessCase{2, PolicyKind::LQH},
                      ExactnessCase{3, PolicyKind::LQH},
                      ExactnessCase{8, PolicyKind::LQH},
                      ExactnessCase{2, PolicyKind::GTB},
                      ExactnessCase{3, PolicyKind::GTB},
                      ExactnessCase{8, PolicyKind::GTB}),
    [](const ::testing::TestParamInfo<ExactnessCase>& info) {
      return std::string(sigrt::to_string(info.param.policy)) + "_" +
             std::to_string(info.param.workers) + "w";
    });

}  // namespace
