#include "core/group.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <vector>

namespace sigrt {

TaskGroup::TaskGroup(GroupId id, std::string name, double ratio, bool record_log)
    : id_(id), name_(std::move(name)), record_log_(record_log), ratio_(ratio) {}

void TaskGroup::on_complete(ExecutionKind kind, float significance,
                            double requested, unsigned worker_slot) noexcept {
  Shard& shard = shard_for(worker_slot);
  switch (kind) {
    case ExecutionKind::Accurate:
      shard.accurate.fetch_add(1, std::memory_order_relaxed);
      break;
    case ExecutionKind::Approximate:
      shard.approximate.fetch_add(1, std::memory_order_relaxed);
      break;
    case ExecutionKind::Dropped:
      shard.dropped.fetch_add(1, std::memory_order_relaxed);
      break;
    case ExecutionKind::Undecided:
      // execute_task normalizes before completion; an Undecided arrival
      // would silently break spawned == accurate+approximate+dropped.
      assert(false && "Undecided task reached completion accounting");
      break;
  }
  if (record_log_) {
    // Worker shards have a single writer, so this lock is uncontended on
    // the completion hot path (it only ever waits on a report() merge);
    // the shared fallback shard is the one place writers can collide.
    support::MutexLock lock(shard.mutex);
    shard.log.push_back({significance, kind});
    shard.requested_mass += requested;
  }
}

GroupReport TaskGroup::report() const {
  GroupReport r;
  r.id = id_;
  r.name = name_;
  r.requested_ratio = ratio();
  // Baseline first: the counters only go up, so totals read after it can
  // never fall below it.
  GroupCounts base;
  {
    support::MutexLock lock(baseline_mutex_);
    base = baseline_;
  }
  const GroupCounts now = totals();
  r.spawned = now.spawned - base.spawned;
  r.accurate = now.accurate - base.accurate;
  r.approximate = now.approximate - base.approximate;
  r.dropped = now.dropped - base.dropped;
  r.redone = now.redone - base.redone;
  r.corrupted_detected = now.corrupted_detected - base.corrupted_detected;

  // Lazy merge of the per-worker log shards — report() is the cold path,
  // so the completion side never pays for a combined log.  The shards are
  // scanned in place (no merged copy); each pass takes one shard lock at
  // a time, so like the counters above, a report taken while tasks are
  // completing is approximate.
  std::size_t log_size = 0;
  double requested_mass = 0.0;
  for (const Shard& shard : shards_) {
    support::MutexLock lock(shard.mutex);
    log_size += shard.log.size();
    requested_mass += shard.requested_mass;
  }

  const std::uint64_t total = r.accurate + r.approximate + r.dropped;
  r.mean_requested_ratio =
      log_size == 0 ? r.requested_ratio
                    : requested_mass / static_cast<double>(log_size);

  // "Inversed significance" tasks (§4.2, Table 2): the disagreement between
  // the actual classification and the ideal one with the *same* accurate
  // budget — i.e. the top-|accurate| tasks by significance.  A task is
  // inversed when it ran accurately below the ideal cutoff or approximately
  // above it; ties at the cutoff are legal either way and never counted.
  // (A plain "approximated while any less significant task was accurate"
  // count would let a single low-significance accurate task poison the
  // whole group.)
  if (log_size > 0 && total > 0 && r.accurate > 0 && r.accurate < log_size) {
    std::vector<float> sigs;
    sigs.reserve(log_size);
    for (const Shard& shard : shards_) {
      support::MutexLock lock(shard.mutex);
      for (const TaskRecord& t : shard.log) sigs.push_back(t.significance);
    }
    if (sigs.empty()) return r;  // log reset between the two passes
    const auto kth =
        sigs.begin() + static_cast<std::ptrdiff_t>(
                           std::min<std::uint64_t>(r.accurate, sigs.size()) - 1);
    std::nth_element(sigs.begin(), kth, sigs.end(), std::greater<float>());
    const float cutoff = *kth;

    std::uint64_t inversed = 0;
    std::size_t scanned = 0;
    for (const Shard& shard : shards_) {
      support::MutexLock lock(shard.mutex);
      for (const TaskRecord& t : shard.log) {
        if (t.kind == ExecutionKind::Accurate && t.significance < cutoff) {
          ++inversed;
        } else if (t.kind != ExecutionKind::Accurate &&
                   t.significance > cutoff) {
          ++inversed;
        }
        ++scanned;
      }
    }
    if (scanned > 0) {
      r.inversion_fraction =
          static_cast<double>(inversed) / static_cast<double>(scanned);
    }
  }
  return r;
}

GroupCounts TaskGroup::totals() const noexcept {
  GroupCounts c;
  for (const Shard& shard : shards_) {
    c.spawned += shard.spawned.load(std::memory_order_relaxed);
    c.accurate += shard.accurate.load(std::memory_order_relaxed);
    c.approximate += shard.approximate.load(std::memory_order_relaxed);
    c.dropped += shard.dropped.load(std::memory_order_relaxed);
  }
  c.redone = redone_.load(std::memory_order_relaxed);
  c.corrupted_detected = corrupted_detected_.load(std::memory_order_relaxed);
  return c;
}

void TaskGroup::reset_stats() {
  const GroupCounts now = totals();
  {
    support::MutexLock lock(baseline_mutex_);
    baseline_ = now;
  }
  for (Shard& shard : shards_) {
    support::MutexLock lock(shard.mutex);
    shard.log.clear();
    shard.requested_mass = 0.0;
  }
}

}  // namespace sigrt
