#include "core/policy_gtb.hpp"

#include <algorithm>
#include <utility>

#include "core/runtime.hpp"

namespace sigrt {

GtbPolicy::GtbPolicy(Runtime& runtime, std::size_t buffer_capacity)
    : runtime_(runtime),
      capacity_(std::max<std::size_t>(1, buffer_capacity)) {}

void GtbPolicy::on_spawn(const TaskRef& task) {
  // Buffer under the lock; classify a full window outside it (see the
  // header's thread-safety note).  The moved-from vector stays in the map
  // with its capacity released — the next spawn re-grows it, which is the
  // same cost profile as the clear() of the single-spawner era.
  std::vector<TaskRef> window;
  {
    support::MutexLock lock(mutex_);
    auto& buffer = buffers_[task->group];
    buffer.push_back(task);
    if (buffer.size() >= capacity_) {
      window = std::move(buffer);
      buffer.clear();
    }
  }
  if (window.empty()) return;
  classify_and_release(task->group, window);  // leaves window cleared
  // Return the window's storage to the map slot so the next fill does not
  // re-grow a capacity-0 vector — on_spawn is the spawn hot path and the
  // steady state should not cycle the allocator once per window.  Skip if
  // concurrent spawns already repopulated (or re-grew) the slot.
  support::MutexLock lock(mutex_);
  auto& buffer = buffers_[task->group];
  if (buffer.empty() && buffer.capacity() < window.capacity()) {
    buffer.swap(window);
  }
}

void GtbPolicy::flush() {
  // Move every window out under the lock, then classify/release without
  // it.  A spawn racing the barrier may land after the move and stay
  // buffered for the next flush — the same task is never released twice,
  // and the flushing thread's own spawns (which happened-before its
  // barrier) are always included.
  std::vector<std::pair<GroupId, std::vector<TaskRef>>> taken;
  {
    support::MutexLock lock(mutex_);
    for (auto& [gid, window] : buffers_) {
      if (window.empty()) continue;
      taken.emplace_back(gid, std::move(window));
      window.clear();
    }
  }
  for (auto& [gid, window] : taken) classify_and_release(gid, window);
}

void GtbPolicy::classify_and_release(GroupId group,
                                     std::vector<TaskRef>& window) {
  if (window.empty()) return;
  const double ratio = runtime_.group_ref(group).ratio();

  // Stable sort by decreasing significance: ties keep spawn order, which
  // makes GTB fully deterministic (§4.2 relies on this for Kmeans).
  std::stable_sort(window.begin(), window.end(),
                   [](const TaskRef& a, const TaskRef& b) {
                     return a->significance > b->significance;
                   });

  // Listing 4: `if (i < group_ratio * task_count) issue_accurate_task(...)`.
  const double quota = ratio * static_cast<double>(window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    Task& t = *window[i];
    if (t.significance >= 1.0f) {
      t.kind = ExecutionKind::Accurate;  // special value: unconditional
    } else if (t.significance <= 0.0f) {
      t.kind = ExecutionKind::Approximate;  // special value: unconditional
    } else {
      t.kind = static_cast<double>(i) < quota ? ExecutionKind::Accurate
                                              : ExecutionKind::Approximate;
    }
  }
  // Re-issue in spawn order (ids ascend with spawn order) so worker queues
  // observe the program's creation order, as in the paper's runtime.  The
  // whole window goes out as one bulk release: the runtime turns it into a
  // single batched scheduler enqueue (one publish per target queue instead
  // of one per task).
  std::stable_sort(window.begin(), window.end(),
                   [](const TaskRef& a, const TaskRef& b) { return a->id < b->id; });
  runtime_.release_bulk(window);
  window.clear();
}

}  // namespace sigrt
