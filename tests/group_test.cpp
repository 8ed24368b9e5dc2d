// TaskGroup accounting tests: counters, reports, inversion metric, ratio
// retargeting, reset, and the quiescence waiter list.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/group.hpp"

namespace {

using sigrt::BarrierWaiter;
using sigrt::ExecutionKind;
using sigrt::GroupReport;
using sigrt::TaskGroup;

TEST(TaskGroup, CountsOutcomes) {
  TaskGroup g(1, "g", 0.5, true);
  g.on_spawn();
  g.on_spawn();
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.3f, 0.5, false);
  g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5, false);
  const GroupReport r = g.report();
  EXPECT_EQ(r.spawned, 3u);
  EXPECT_EQ(r.accurate, 1u);
  EXPECT_EQ(r.approximate, 1u);
  EXPECT_EQ(r.dropped, 1u);
}

TEST(TaskGroup, ProvidedRatio) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Accurate, 0.8f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.1f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().provided_ratio(), 0.5);
  EXPECT_NEAR(g.report().ratio_diff(), 0.0, 1e-12);
}

TEST(TaskGroup, RatioDiffTracksMeanRequested) {
  TaskGroup g(1, "g", 0.8, true);
  g.on_spawn();
  g.on_spawn();
  // Requested 0.8 at classification time for both; both approximated.
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.8, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.8, false);
  EXPECT_NEAR(g.report().ratio_diff(), 0.8, 1e-12);
}

TEST(TaskGroup, MeanRequestedHandlesRetargeting) {
  // Fluidanimate pattern: half the tasks at ratio 1.0, half at 0.0.
  TaskGroup g(1, "fluid", 0.0, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 1.0, false);
  g.on_complete(ExecutionKind::Accurate, 0.5f, 1.0, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.0, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.0, false);
  const GroupReport r = g.report();
  EXPECT_DOUBLE_EQ(r.mean_requested_ratio, 0.5);
  EXPECT_DOUBLE_EQ(r.provided_ratio(), 0.5);
  EXPECT_NEAR(r.ratio_diff(), 0.0, 1e-12);
}

TEST(TaskGroup, InversionDetected) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  // A 0.2-significance task ran accurately while a 0.8 task was
  // approximated: the 0.8 task is inversed.
  g.on_complete(ExecutionKind::Accurate, 0.2f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.8f, 0.5, false);
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.1f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.25);
}

TEST(TaskGroup, NoInversionWhenOrderRespected) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, false);
  g.on_complete(ExecutionKind::Accurate, 0.8f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5, false);
  g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.0);
}

TEST(TaskGroup, EqualSignificanceIsNeverAnInversion) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 2; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.5, false);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.5, false);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.0);
}

TEST(TaskGroup, InternalTasksExcludedFromStats) {
  TaskGroup g(1, "g", 1.0, true);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, /*internal=*/true);
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 0u);
  EXPECT_EQ(r.spawned, 1u);  // spawn still tracked for the barrier
}

// The group's waiter list is the wake path of every wait_group: a waiter
// registered on it is notified by the completion that drives pending to
// zero.  Parks are bounded, so a lost notify fails instead of hanging.
TEST(TaskGroup, LastCompletionWakesRegisteredWaiter) {
  TaskGroup g(1, "g", 1.0, true);
  g.on_spawn();
  BarrierWaiter* const w = sigrt::this_thread_waiter();
  g.waiters().add(w);
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, false);
  });
  // Register / re-check / park, as Runtime::help_until does.
  w->parker.prepare_park();
  bool woken = g.pending() == 0;
  if (woken) {
    w->parker.cancel_park();
  } else {
    woken = w->parker.park_for(std::chrono::seconds(10));
  }
  EXPECT_TRUE(woken) << "the last on_complete did not notify the waiter";
  EXPECT_EQ(g.pending(), 0u);
  completer.join();
  g.waiters().remove(w);
}

TEST(TaskGroup, OnlyTheQuiescingCompletionNotifies) {
  TaskGroup g(1, "g", 1.0, true);
  g.on_spawn();
  g.on_spawn();
  BarrierWaiter* const w = sigrt::this_thread_waiter();
  g.waiters().add(w);

  w->parker.prepare_park();
  g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, false);  // 1 pending
  EXPECT_FALSE(w->parker.park_for(std::chrono::milliseconds(1)));

  w->parker.prepare_park();
  g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, false);  // quiesced
  EXPECT_TRUE(w->parker.park_for(std::chrono::seconds(10)));

  // Removed waiters are no longer notified.
  g.waiters().remove(w);
  g.on_spawn();
  w->parker.prepare_park();
  g.on_complete(ExecutionKind::Accurate, 1.0f, 1.0, false);
  EXPECT_FALSE(w->parker.park_for(std::chrono::milliseconds(1)));
}

TEST(TaskGroup, SetRatioVisible) {
  TaskGroup g(1, "g", 0.3, true);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.3);
  g.set_ratio(0.9);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.9);
}

TEST(TaskGroup, ResetStatsClearsCountersKeepsRatio) {
  TaskGroup g(1, "g", 0.7, true);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.7, false);
  g.reset_stats();
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 0u);
  EXPECT_EQ(r.spawned, 0u);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.7);
}

TEST(TaskGroup, LogDisabledStillCounts) {
  TaskGroup g(1, "g", 0.5, /*record_log=*/false);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.5, false);
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 1u);
  EXPECT_DOUBLE_EQ(r.inversion_fraction, 0.0);
}

TEST(TaskGroup, EmptyReportDefaults) {
  TaskGroup g(3, "empty", 0.4, true);
  const GroupReport r = g.report();
  EXPECT_EQ(r.id, 3u);
  EXPECT_EQ(r.name, "empty");
  EXPECT_DOUBLE_EQ(r.provided_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(r.requested_ratio, 0.4);
}

}  // namespace
