// Global Task Buffering (GTB), §3.3 / Listing 4 of the paper: the
// issue-time decision point.
//
// Spawned tasks are buffered per group instead of issued.  When a buffer
// fills, or a barrier flushes it, the buffered window is sorted by
// significance and the top ratio()·window tasks are classified accurate,
// the rest approximate.  With an unbounded buffer (GTBMaxBuffer, the §3.2
// oracle) the classification is exact: it equals the offline-optimal
// assignment.
//
// The Runtime owns one GtbPolicy under GTB and GTBMaxBuffer.  It calls
// on_spawn() from spawn_impl and flush() from every barrier; the policy
// reads the group's ratio() and hands a classified window back through
// Runtime::release_bulk.
//
// Thread safety (the any-thread spawn contract): the per-group windows are
// guarded by one mutex, held only while mutating the buffers — a window
// that fills or flushes is MOVED out under the lock and classified/released
// outside it, so concurrent spawners never serialize behind a sort, two
// barriers flushing concurrently each release a disjoint window exactly
// once, and a release that executes inline (zero-worker mode) can
// recursively spawn into this policy without self-deadlock.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "core/task.hpp"
#include "core/types.hpp"
#include "support/mutex.hpp"

namespace sigrt {

class Runtime;

class GtbPolicy {
 public:
  /// `buffer_capacity` tasks are buffered per group before a forced flush;
  /// SIZE_MAX buffers until the barrier (GTBMaxBuffer).
  GtbPolicy(Runtime& runtime, std::size_t buffer_capacity);

  /// Spawning thread — ANY thread, including workers inside task bodies: a
  /// new task holding its policy hold (see Task::gate) was spawned.  It is
  /// buffered; a window that fills is classified and released.
  void on_spawn(const TaskRef& task);

  /// Barrier reached — again from any thread, possibly several
  /// concurrently: classifies and releases every buffered window.  Each
  /// buffered task is released exactly once across concurrent flushes.
  void flush();

 private:
  /// Sorts one group's window, classifies it per Listing 4 and releases all
  /// tasks to the runtime.
  void classify_and_release(GroupId group, std::vector<TaskRef>& window);

  Runtime& runtime_;
  const std::size_t capacity_;
  // Guards buffers_ only; classification runs on moved-out windows.
  support::Mutex mutex_;
  std::unordered_map<GroupId, std::vector<TaskRef>> buffers_
      SIGRT_GUARDED_BY(mutex_);
};

}  // namespace sigrt
