// Scheduler tests: round-robin distribution, FIFO order, stealing, inline
// mode, busy-time accounting — over the pooled, intrusively refcounted task
// lifecycle (tasks come from make_task(), not the heap).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "scheduler_test_util.hpp"

namespace {

using sigrt::Scheduler;
using sigrt::Task;
using sigrt::test::exec_thunk;
using sigrt::test::make_ready_task;

TEST(Scheduler, InlineModeExecutesImmediately) {
  int runs = 0;
  auto fn = [&](Task& t, unsigned) {
    t.accurate();
    ++runs;
  };
  Scheduler s(0, 0, true, &fn, exec_thunk(fn));
  EXPECT_TRUE(s.inline_mode());
  int x = 0;
  s.enqueue(make_ready_task([&] { x = 1; }));
  EXPECT_EQ(x, 1);
  EXPECT_EQ(runs, 1);
}

TEST(Scheduler, InlineModeDrainsCascades) {
  // A task enqueued from within execution must also run before enqueue
  // returns to the outermost caller.
  Scheduler* sp = nullptr;
  std::vector<int> order;
  auto fn = [&](Task& t, unsigned) { t.accurate(); };
  Scheduler s(0, 0, true, &fn, exec_thunk(fn));
  sp = &s;
  s.enqueue(make_ready_task([&] {
    order.push_back(1);
    sp->enqueue(make_ready_task([&] { order.push_back(2); }));
  }));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Scheduler, ThreadedExecutesEverything) {
  std::atomic<int> runs{0};
  {
    auto fn = [&](Task& t, unsigned) {
      t.accurate();
      runs.fetch_add(1);
    };
    Scheduler s(4, 0, true, &fn, exec_thunk(fn));
    for (int i = 0; i < 1000; ++i) {
      s.enqueue(make_ready_task([] {}));
    }
    while (runs.load() < 1000) std::this_thread::yield();
  }
  EXPECT_EQ(runs.load(), 1000);
}

TEST(Scheduler, WorkerIndexIsWithinRange) {
  std::atomic<bool> ok{true};
  std::atomic<int> runs{0};
  {
    auto fn = [&](Task& t, unsigned w) {
      if (w >= 3) ok.store(false);
      t.accurate();
      runs.fetch_add(1);
    };
    Scheduler s(3, 0, true, &fn, exec_thunk(fn));
    for (int i = 0; i < 100; ++i) s.enqueue(make_ready_task([] {}));
    while (runs.load() < 100) std::this_thread::yield();
  }
  EXPECT_TRUE(ok.load());
}

TEST(Scheduler, SingleWorkerPreservesFifoOrder) {
  std::vector<int> order;
  std::mutex m;
  std::atomic<int> runs{0};
  {
    auto fn = [&](Task& t, unsigned) {
      t.accurate();
      runs.fetch_add(1);
    };
    Scheduler s(1, 0, false, &fn, exec_thunk(fn));
    for (int i = 0; i < 50; ++i) {
      s.enqueue(make_ready_task([&, i] {
        std::lock_guard lock(m);
        order.push_back(i);
      }));
    }
    while (runs.load() < 50) std::this_thread::yield();
  }
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, StealingMovesWorkOffABlockedWorker) {
  // Every task lands on worker 0, which blocks on the first one until the
  // "victim" tasks (queued behind it) are executed by the thief.
  // Completion therefore proves stealing works.
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  {
    auto fn = [&](Task& t, unsigned) {
      t.accurate();
      done.fetch_add(1);
    };
    Scheduler s(2, 0, true, &fn, exec_thunk(fn));
    // Blocker lands on worker 0 (round-robin starts there).
    s.enqueue(make_ready_task([&] {
      while (!release.load()) std::this_thread::yield();
    }));
    // The 16-task routing chunk sends these to worker 0 as well: they sit
    // behind the blocker and must be stolen by worker 1.
    for (int i = 0; i < 10; ++i) s.enqueue(make_ready_task([] {}));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done.load() < 10 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(done.load(), 10);
    EXPECT_GE(s.stats().steals, 1u);
    release.store(true);
    while (done.load() < 11) std::this_thread::yield();
  }
}

TEST(Scheduler, InboxSpliceOfSeveralTasksWakesAThief) {
  // Both workers park first.  The 16-task routing chunk then sends all 16
  // enqueues to worker 0's inbox, and the first enqueue wakes only worker
  // 0.  If worker 0 wakes after the last enqueue (a slow wake-up, as under
  // CPU oversubscription), it splices all 16 and runs the oldest, which
  // blocks until the other 15 have run: only a thief woken by that splice
  // can run them.  A faster wake-up splices fewer, and a later enqueue into
  // the emptied inbox wakes the thief instead.
  std::atomic<int> done{0};
  std::atomic<bool> others_ran{false};
  std::atomic<bool> blocker_finished{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // Built up front so the enqueues below run back to back, ahead of worker
  // 0's wake-up.
  std::vector<sigrt::TaskRef> tasks;
  tasks.push_back(make_ready_task([&] {
    while (done.load() < 15 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    others_ran.store(done.load() == 15);
    blocker_finished.store(true);
  }));
  for (int i = 0; i < 15; ++i) {
    tasks.push_back(make_ready_task([&] { done.fetch_add(1); }));
  }
  {
    auto fn = [&](Task& t, unsigned) { t.accurate(); };
    Scheduler s(2, 0, true, &fn, exec_thunk(fn));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (sigrt::TaskRef& t : tasks) s.enqueue(std::move(t));
    while (!blocker_finished.load()) std::this_thread::yield();
  }
  EXPECT_TRUE(others_ran.load());
  EXPECT_EQ(done.load(), 15);
}

TEST(Scheduler, BusyTimeAccumulates) {
  std::atomic<int> runs{0};
  auto fn = [&](Task& t, unsigned) {
    t.accurate();
    runs.fetch_add(1);
  };
  Scheduler s(2, 0, true, &fn, exec_thunk(fn));
  for (int i = 0; i < 8; ++i) {
    s.enqueue(make_ready_task([] {
      volatile double x = 1.0;
      for (int j = 0; j < 400000; ++j) x = x * 1.0000001 + 0.1;
    }));
  }
  while (runs.load() < 8) std::this_thread::yield();
  EXPECT_GT(s.busy_ns(), 0);
  EXPECT_EQ(s.stats().executed, 8u);
}

TEST(Scheduler, InlineBusyTimeCounted) {
  auto fn = [&](Task& t, unsigned) { t.accurate(); };
  Scheduler s(0, 0, true, &fn, exec_thunk(fn));
  s.enqueue(make_ready_task([] {
    volatile double x = 1.0;
    for (int j = 0; j < 400000; ++j) x = x * 1.0000001 + 0.1;
  }));
  EXPECT_GT(s.busy_ns(), 0);
  EXPECT_EQ(s.stats().executed, 1u);
}

TEST(Scheduler, CleanShutdownWithEmptyQueues) {
  for (int i = 0; i < 10; ++i) {
    Scheduler s(4, 0, true, nullptr,
                [](void*, Task& t, unsigned) { t.accurate(); });
    // Destroy immediately: workers must exit without having run anything.
  }
  SUCCEED();
}

}  // namespace
