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

/// Thread-safe group state.  Spawners (any thread) count tasks into it;
/// workers complete tasks against it; any thread may barrier-wait on it.
///
/// The task counters are sharded per worker slot: a spawn or completion
/// bumps the calling slot's shard, so the worker-side task path writes no
/// line another worker writes.  totals() and report() sum the shards; they
/// are approximate while tasks run and exact after a barrier.
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

  /// Sentinel worker_slot for callers with no worker identity.
  static constexpr unsigned kNoWorkerSlot = ~0u;

  /// Spawn side (any thread): a user task joined this group.  `worker_slot`
  /// is the calling thread's worker slot (kNoWorkerSlot without one).
  /// Internal tasks (wait_on fences) are not counted here, mirroring
  /// on_complete — so every report obeys spawned == accurate + approximate
  /// + dropped once the group quiesces.
  void on_spawn(unsigned worker_slot = kNoWorkerSlot) noexcept {
    // Relaxed: the barrier that makes a report exact orders it.
    shard_for(worker_slot).spawned.fetch_add(1, std::memory_order_relaxed);
  }

  /// Worker side: a user task of this group finished with outcome `kind`.
  /// `requested` is the ratio in effect when the task was classified.
  /// `worker_slot` routes the counter bump and the task-record append to a
  /// per-worker shard (pass the executing worker's index); callers without
  /// a worker identity (tests, external completions) omit it and share the
  /// fallback shard — the only shard whose mutex ever sees contention.
  void on_complete(ExecutionKind kind, float significance, double requested,
                   unsigned worker_slot = kNoWorkerSlot) noexcept;

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

  /// The barrier count wait_group() waits on.  It counts the group's live
  /// tasks that no live task of the same group covers: the runtime adds a
  /// task's unit when the task has no parent or a parent in another group,
  /// and a completing parent adds the units of its still-live same-group
  /// children (Runtime::execute_task).  Every add comes before its matching
  /// subtract, so the count reads zero only once every task of the group
  /// has completed.
  [[nodiscard]] std::uint64_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }

  /// Relaxed: an add is ordered before its matching subtract by the task's
  /// publication or by the parent's hand-off (see Runtime::execute_task).
  void add_pending(std::uint64_t n) noexcept {
    pending_.fetch_add(n, std::memory_order_relaxed);
  }

  /// acq_rel, so a waiter that reads zero sees every covered task's
  /// effects; the subtract that reaches zero wakes the barrier waiters.
  void sub_pending(std::uint64_t n) noexcept {
    if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
      waiters_.notify_all();
    }
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
  // Read on every dequeue (the ratio) and every report; kept off the line
  // of pending_, which the spawns and completions of tasks without a
  // covering parent write.
  const GroupId id_;
  const std::string name_;
  const bool record_log_;
  std::atomic<double> ratio_;

  alignas(64) std::atomic<std::uint64_t> pending_{0};

  alignas(64) std::atomic<std::uint64_t> redone_{0};
  std::atomic<std::uint64_t> corrupted_detected_{0};

  /// totals() at the last reset_stats().
  mutable support::Mutex baseline_mutex_;
  GroupCounts baseline_ SIGRT_GUARDED_BY(baseline_mutex_);

  WaiterList waiters_;

  // Per-worker shards of the task counters and the task-record log: worker
  // w bumps and appends to shard (w & kShardMask), and callers without a
  // worker identity share the extra fallback shard.  The counters are
  // relaxed atomics (a slot handed off mid-body, or more than kShards
  // workers, can put two writers on one shard).  The log's mutex is
  // uncontended except against a concurrent report()/reset_stats() merge
  // and on the fallback shard.  report() merges the shards lazily (it is
  // the cold path).
  static constexpr unsigned kShards = 16;  // power of two
  static constexpr unsigned kShardMask = kShards - 1;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> spawned{0};
    std::atomic<std::uint64_t> accurate{0};
    std::atomic<std::uint64_t> approximate{0};  ///< ran the approxfun body
    std::atomic<std::uint64_t> dropped{0};      ///< approximated, no approxfun
    mutable support::Mutex mutex;
    std::vector<TaskRecord> log SIGRT_GUARDED_BY(mutex);
    /// Sum of ratio() at each classification.
    double requested_mass SIGRT_GUARDED_BY(mutex) = 0.0;
  };
  std::array<Shard, kShards + 1> shards_;  // +1: fallback shard

  [[nodiscard]] Shard& shard_for(unsigned worker_slot) noexcept {
    return worker_slot == kNoWorkerSlot ? shards_[kShards]
                                        : shards_[worker_slot & kShardMask];
  }
};

}  // namespace sigrt
