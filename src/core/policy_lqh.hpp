// Local Queue History (LQH), §3.4 of the paper: the dequeue-time decision
// point.
//
// Tasks are issued to worker queues immediately.  Right before executing a
// task, the worker consults its private history of significance levels for
// the task's group: the task runs accurately iff enough strictly less
// significant tasks have been seen to cover the group's approximation
// budget (1 - ratio).  The paper tracks 101 discrete levels (0.00..1.00 in
// 0.01 steps); the level count is configurable here.
//
// Threading: the Runtime owns one LqhPolicy under LQH and calls decide()
// from classify_at_dequeue — the scheduler's dequeue hook, on the executing
// worker — and the entire decision path is lock-free: per-worker history
// slots are disjoint, and the caller resolves the group's ratio() through
// the runtime's lock-free group table plus the group's relaxed atomic.  One
// worker never touches another worker's history (work stealing changes
// *which* history a task lands in, the §4.2 effect, not who owns it).
//
// Tie handling: the paper's predicate t_g(s) > (1-R)·t_g(1.0) is degenerate
// when many tasks share one significance level (e.g. Kmeans, where *all*
// tasks do: the cumulative count then always, or never, exceeds the budget).
// We refine the boundary level deterministically: among tasks at the level
// that straddles the budget, a per-level counter approximates exactly the
// fraction of that level's population needed to meet the budget.  Levels
// strictly below the budget are approximated and levels strictly above run
// accurately, exactly as the paper's formula dictates; only the straddling
// level is split.  This preserves the published behaviour (per-worker
// convergence to the ratio, small deviations due to the localized view,
// §4.2/Table 2) while making uniform-significance groups obey the ratio.
#pragma once

#include <cstdint>
#include <vector>

#include "core/task.hpp"
#include "core/types.hpp"

namespace sigrt {

class LqhPolicy {
 public:
  LqhPolicy(unsigned levels, unsigned workers);

  /// Worker `worker_index` won `task`, still Undecided, of a group whose
  /// live ratio() is `ratio`: classify it against that worker's history.
  [[nodiscard]] ExecutionKind decide(const Task& task, unsigned worker_index,
                                     double ratio);

 private:
  /// Maps a significance in [0,1] to its discrete level.
  [[nodiscard]] unsigned level_of(float significance) const noexcept;

  /// Levels per coarse block of the two-level histogram: the cumulative
  /// count below a level is (sum of whole blocks) + (partial scan inside
  /// one block), turning the O(levels) prefix walk on every decision into
  /// ~levels/16 + 8 adds.  16 keeps one block inside a single cache line.
  static constexpr unsigned kBlockShift = 4;

  /// Per-(worker, group) execution history.
  struct GroupHistory {
    std::vector<std::uint64_t> seen;        // tasks observed per level
    std::vector<std::uint64_t> approximated;  // approx decisions per level
    std::vector<std::uint64_t> block;       // block sums over `seen`
    std::uint64_t total = 0;
  };

  struct WorkerState {
    /// Directly indexed by GroupId: ids are small and dense, so this turns
    /// the per-decision history lookup from a hash probe into one load.
    std::vector<GroupHistory> groups;
  };

  const unsigned levels_;
  std::vector<WorkerState> workers_;  // index = worker, no sharing => no locks
};

}  // namespace sigrt
