#include "core/policy_lqh.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sigrt {

LqhPolicy::LqhPolicy(unsigned levels, unsigned workers)
    : levels_(std::max(2u, levels)), workers_(std::max(1u, workers)) {}

unsigned LqhPolicy::level_of(float significance) const noexcept {
  const float clamped = std::clamp(significance, 0.0f, 1.0f);
  return static_cast<unsigned>(
      std::lround(clamped * static_cast<float>(levels_ - 1)));
}

ExecutionKind LqhPolicy::decide(const Task& task, unsigned worker_index,
                                double ratio) {
  // Called from the scheduler's worker loop (dequeue hook) on the worker
  // that won the task; touches only that worker's slot, so no locks.
  // Special significance values bypass the history entirely (§2).
  if (task.significance >= 1.0f) return ExecutionKind::Accurate;
  if (task.significance <= 0.0f) return ExecutionKind::Approximate;

  assert(worker_index < workers_.size());
  WorkerState& w = workers_[worker_index];
  if (task.group >= w.groups.size()) w.groups.resize(task.group + 1);
  GroupHistory& h = w.groups[task.group];
  if (h.seen.empty()) {
    h.seen.assign(levels_, 0);
    h.approximated.assign(levels_, 0);
    h.block.assign((levels_ >> kBlockShift) + 1, 0);
  }

  const unsigned level = level_of(task.significance);
  ++h.seen[level];
  ++h.block[level >> kBlockShift];
  ++h.total;

  // t_g(s) bookkeeping: cumulative count strictly below this level, from
  // the two-level histogram (whole blocks + the partial leading block).
  std::uint64_t below = 0;
  for (unsigned b = 0; b < (level >> kBlockShift); ++b) below += h.block[b];
  for (unsigned l = level & ~((1u << kBlockShift) - 1); l < level; ++l) {
    below += h.seen[l];
  }
  const std::uint64_t at = h.seen[level];

  const double budget = (1.0 - ratio) * static_cast<double>(h.total);

  ExecutionKind kind;
  if (static_cast<double>(below) >= budget) {
    // Enough lower-significance tasks cover the approximation budget.
    kind = ExecutionKind::Accurate;
  } else if (static_cast<double>(below + at) <= budget) {
    // This whole level sits inside the budget.
    kind = ExecutionKind::Approximate;
  } else {
    // Boundary level: split it so the approximated share of the level
    // converges to the budget remainder (deterministic per-level counter).
    const double level_share =
        (budget - static_cast<double>(below)) / static_cast<double>(at);
    const bool approx =
        static_cast<double>(h.approximated[level]) < level_share * static_cast<double>(at);
    kind = approx ? ExecutionKind::Approximate : ExecutionKind::Accurate;
  }

  if (kind == ExecutionKind::Approximate) ++h.approximated[level];
  return kind;
}

}  // namespace sigrt
