// Task groups: the label() clause of the programming model.
//
// A group carries the programmer's accurate-execution ratio() and is the
// unit of barrier synchronization (taskwait label(...)) and of the quality
// accounting reported in Table 2 of the paper.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/parker.hpp"
#include "core/types.hpp"
#include "support/mutex.hpp"

namespace sigrt {

/// One (significance, outcome) observation; the per-group log of these
/// drives the Table 2 metrics.
struct TaskRecord {
  float significance = 1.0f;
  ExecutionKind kind = ExecutionKind::Accurate;
};

/// A group's task counts.  The counters behind them only ever go up:
/// TaskGroup::totals() reads them since the group was created, report()
/// since the last reset_stats().
struct GroupCounts {
  std::uint64_t spawned = 0;
  std::uint64_t accurate = 0;
  std::uint64_t approximate = 0;  ///< ran the approxfun body
  std::uint64_t dropped = 0;      ///< approximated with no approxfun

  /// Accurate executions that were re-run after a body fault or a check()
  /// rejection (one count per re-execution, not per task).
  std::uint64_t redone = 0;

  /// check() rejections — silent corruptions the validator caught (whether
  /// or not redo budget remained to fix them).
  std::uint64_t corrupted_detected = 0;
};

/// Snapshot of a group's accounting, safe to read after a barrier.  The
/// counts cover the tasks since the group's last reset_stats().
struct GroupReport : GroupCounts {
  GroupId id = kDefaultGroup;
  std::string name;
  double requested_ratio = 1.0;  ///< ratio() in effect when the report was taken

  /// Mean of the ratio() values in effect when each task was classified;
  /// robust to programs that retarget the ratio between phases (e.g.
  /// Fluidanimate alternating 1.0 / 0.0).
  double mean_requested_ratio = 1.0;

  /// Fraction of tasks actually executed accurately.
  [[nodiscard]] double provided_ratio() const noexcept {
    const std::uint64_t total = accurate + approximate + dropped;
    return total == 0 ? 1.0 : static_cast<double>(accurate) / static_cast<double>(total);
  }

  /// |requested - provided|: the per-group term of Table 2's "Average Ratio
  /// Diff" column.
  [[nodiscard]] double ratio_diff() const noexcept {
    const double d = mean_requested_ratio - provided_ratio();
    return d < 0 ? -d : d;
  }

  /// Fraction of tasks that were approximated/dropped even though some task
  /// of strictly lower significance in the same group ran accurately —
  /// Table 2's "% Inversed Significance Tasks".
  double inversion_fraction = 0.0;
};

/// Thread-safe group state.  The master spawns into it; workers complete
/// tasks against it; any thread may barrier-wait on it.
class TaskGroup {
 public:
  TaskGroup(GroupId id, std::string name, double ratio, bool record_log);

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  [[nodiscard]] GroupId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// The ratio() knob.  May be retargeted between phases — or continuously,
  /// from any thread (a relaxed atomic: concurrent classifications observe
  /// either value); policies read the value current at classification time.
  void set_ratio(double ratio) noexcept {
    ratio_.store(ratio, std::memory_order_relaxed);
  }
  [[nodiscard]] double ratio() const noexcept {
    return ratio_.load(std::memory_order_relaxed);
  }

  /// Spawn side (any thread): a task joined this group.  Internal tasks
  /// (wait_on fences) count toward the barrier (`pending`) but not toward
  /// `spawned`, mirroring on_complete's exclusion — so every report obeys
  /// spawned == accurate + approximate + dropped once the group quiesces.
  void on_spawn(bool internal = false) noexcept;

  /// Worker side: a task of this group finished with outcome `kind`.
  /// `requested` is the ratio in effect when the task was classified.
  /// `worker_slot` routes the task-record append to a per-worker log shard
  /// (pass the executing worker's index); callers without a worker
  /// identity (tests, external completions) omit it and share the
  /// fallback shard — the only shard whose mutex ever sees contention.
  void on_complete(ExecutionKind kind, float significance, double requested,
                   bool internal, unsigned worker_slot = kNoWorkerSlot) noexcept;

  /// Worker side: an accurate task of this group is being re-executed after
  /// a fault or a check() rejection (`corrupted` = the validator rejected a
  /// completed result, i.e. a silent corruption was detected).  The task
  /// stays pending — this only feeds the resilience counters.
  void on_redo(bool corrupted) noexcept {
    redone_.fetch_add(1, std::memory_order_relaxed);
    if (corrupted) corrupted_detected_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Worker side: check() rejected a result but no redo budget remains (the
  /// error surfaces at the barrier instead).
  void on_corruption_detected() noexcept {
    corrupted_detected_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sentinel worker_slot for callers with no worker identity.
  static constexpr unsigned kNoWorkerSlot = ~0u;

  [[nodiscard]] std::uint64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Barrier waiters (wait_group, from any thread) parked on this group;
  /// the completion that drives pending to zero notifies them.
  [[nodiscard]] WaiterList& waiters() noexcept { return waiters_; }

  /// Accounting snapshot since the last reset_stats() (includes the
  /// inversion scan over the task log).
  [[nodiscard]] GroupReport report() const;

  /// Counts since the group was created; reset_stats() does not move them.
  [[nodiscard]] GroupCounts totals() const noexcept;

  /// Starts a new report window: the current totals become the baseline
  /// that report() subtracts, and the task log is cleared (the ratio is
  /// kept).  Must only be called while the group has no pending tasks.
  void reset_stats();

 private:
  const GroupId id_;
  const std::string name_;
  const bool record_log_;
  std::atomic<double> ratio_;

  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> accurate_{0};
  std::atomic<std::uint64_t> approximate_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> redone_{0};
  std::atomic<std::uint64_t> corrupted_detected_{0};

  /// totals() at the last reset_stats().
  mutable support::Mutex baseline_mutex_;
  GroupCounts baseline_ SIGRT_GUARDED_BY(baseline_mutex_);

  WaiterList waiters_;

  // Task-record log, sharded by executing worker so the per-completion
  // append never crosses a contended lock: worker w appends to shard
  // (w & kLogShardMask) — single writer, so its mutex is uncontended
  // except against a concurrent report()/reset_stats() merge — and
  // callers without a worker identity share the extra fallback shard,
  // the only one whose mutex serializes writers.  report() merges the
  // shards lazily (it is the cold path).
  static constexpr unsigned kLogShards = 16;  // power of two
  static constexpr unsigned kLogShardMask = kLogShards - 1;
  struct alignas(64) LogShard {
    mutable support::Mutex mutex;
    std::vector<TaskRecord> log SIGRT_GUARDED_BY(mutex);
    /// Sum of ratio() at each classification.
    double requested_mass SIGRT_GUARDED_BY(mutex) = 0.0;
  };
  std::array<LogShard, kLogShards + 1> log_shards_;  // +1: fallback shard

  [[nodiscard]] LogShard& shard_for(unsigned worker_slot) noexcept {
    return worker_slot == kNoWorkerSlot
               ? log_shards_[kLogShards]
               : log_shards_[worker_slot & kLogShardMask];
  }
};

}  // namespace sigrt
