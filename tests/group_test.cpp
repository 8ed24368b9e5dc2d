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
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.3f, 0.5);
  g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5);
  const GroupReport r = g.report();
  EXPECT_EQ(r.spawned, 3u);
  EXPECT_EQ(r.accurate, 1u);
  EXPECT_EQ(r.approximate, 1u);
  EXPECT_EQ(r.dropped, 1u);
}

TEST(TaskGroup, ProvidedRatio) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5);
  g.on_complete(ExecutionKind::Accurate, 0.8f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.1f, 0.5);
  EXPECT_DOUBLE_EQ(g.report().provided_ratio(), 0.5);
  EXPECT_NEAR(g.report().ratio_diff(), 0.0, 1e-12);
}

TEST(TaskGroup, RatioDiffTracksMeanRequested) {
  TaskGroup g(1, "g", 0.8, true);
  g.on_spawn();
  g.on_spawn();
  // Requested 0.8 at classification time for both; both approximated.
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.8);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.8);
  EXPECT_NEAR(g.report().ratio_diff(), 0.8, 1e-12);
}

TEST(TaskGroup, MeanRequestedHandlesRetargeting) {
  // Fluidanimate pattern: half the tasks at ratio 1.0, half at 0.0.
  TaskGroup g(1, "fluid", 0.0, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 1.0);
  g.on_complete(ExecutionKind::Accurate, 0.5f, 1.0);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.0);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.0);
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
  g.on_complete(ExecutionKind::Accurate, 0.2f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.8f, 0.5);
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.1f, 0.5);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.25);
}

TEST(TaskGroup, NoInversionWhenOrderRespected) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 4; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5);
  g.on_complete(ExecutionKind::Accurate, 0.8f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5);
  g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.0);
}

TEST(TaskGroup, EqualSignificanceIsNeverAnInversion) {
  TaskGroup g(1, "g", 0.5, true);
  for (int i = 0; i < 2; ++i) g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.5);
  g.on_complete(ExecutionKind::Approximate, 0.5f, 0.5);
  EXPECT_DOUBLE_EQ(g.report().inversion_fraction, 0.0);
}

// The task counters are sharded per worker slot; totals() and report()
// sum every shard, the fallback shard for callers without a slot included,
// and slots past the shard count share a shard without losing counts.
TEST(TaskGroup, CountsSumAcrossWorkerShards) {
  TaskGroup g(1, "g", 0.5, true);
  const unsigned slots[] = {0u, 1u, 15u, 16u, 37u, TaskGroup::kNoWorkerSlot};
  for (const unsigned slot : slots) {
    g.on_spawn(slot);
    g.on_spawn(slot);
    g.on_complete(ExecutionKind::Accurate, 0.9f, 0.5, slot);
    g.on_complete(ExecutionKind::Dropped, 0.1f, 0.5, slot);
  }
  g.on_complete(ExecutionKind::Approximate, 0.2f, 0.5, 3u);
  const GroupReport r = g.report();
  EXPECT_EQ(r.spawned, 12u);
  EXPECT_EQ(r.accurate, 6u);
  EXPECT_EQ(r.dropped, 6u);
  EXPECT_EQ(r.approximate, 1u);
  EXPECT_EQ(g.totals().spawned, 12u);
  EXPECT_EQ(g.pending(), 0u) << "the task counters do not move the barrier";
}

// The group's waiter list is the wake path of every wait_group: a waiter
// registered on it is notified by the subtract that drives pending to
// zero.  Parks are bounded, so a lost notify fails instead of hanging.
TEST(TaskGroup, LastCompletionWakesRegisteredWaiter) {
  TaskGroup g(1, "g", 1.0, true);
  g.add_pending(1);
  BarrierWaiter* const w = sigrt::this_thread_waiter();
  g.waiters().add(w);
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    g.sub_pending(1);
  });
  // Register / re-check / park, as Runtime::help_until does.
  w->parker.prepare_park();
  bool woken = g.pending() == 0;
  if (woken) {
    w->parker.cancel_park();
  } else {
    woken = w->parker.park_for(std::chrono::seconds(10));
  }
  EXPECT_TRUE(woken) << "the last sub_pending did not notify the waiter";
  EXPECT_EQ(g.pending(), 0u);
  completer.join();
  g.waiters().remove(w);
}

TEST(TaskGroup, OnlyTheQuiescingCompletionNotifies) {
  TaskGroup g(1, "g", 1.0, true);
  g.add_pending(1);
  g.add_pending(1);
  BarrierWaiter* const w = sigrt::this_thread_waiter();
  g.waiters().add(w);

  w->parker.prepare_park();
  g.sub_pending(1);  // 1 pending
  EXPECT_FALSE(w->parker.park_for(std::chrono::milliseconds(1)));

  w->parker.prepare_park();
  g.sub_pending(1);  // quiesced
  EXPECT_TRUE(w->parker.park_for(std::chrono::seconds(10)));

  // Removed waiters are no longer notified.
  g.waiters().remove(w);
  g.add_pending(1);
  w->parker.prepare_park();
  g.sub_pending(1);
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
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.7);
  g.reset_stats();
  const GroupReport r = g.report();
  EXPECT_EQ(r.accurate, 0u);
  EXPECT_EQ(r.spawned, 0u);
  EXPECT_DOUBLE_EQ(g.ratio(), 0.7);
}

TEST(TaskGroup, LogDisabledStillCounts) {
  TaskGroup g(1, "g", 0.5, /*record_log=*/false);
  g.on_spawn();
  g.on_complete(ExecutionKind::Accurate, 0.5f, 0.5);
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
