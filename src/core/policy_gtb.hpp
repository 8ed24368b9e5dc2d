// Global Task Buffering (GTB), §3.3 / Listing 4 of the paper.
//
// Spawned tasks are buffered per group instead of issued.  When a buffer
// fills, or a barrier flushes it, the buffered window is sorted by
// significance and the top ratio()·window tasks are classified accurate,
// the rest approximate.  With an unbounded buffer (GTBMaxBuffer, the §3.2
// oracle) the classification is exact: it equals the offline-optimal
// assignment.
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
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "support/mutex.hpp"

namespace sigrt {

class GtbPolicy : public Policy {
 public:
  /// `buffer_capacity` tasks are buffered per group before a forced flush;
  /// SIZE_MAX buffers until the barrier (Max Buffer flavor).
  explicit GtbPolicy(std::size_t buffer_capacity, bool max_buffer = false);

  [[nodiscard]] const char* name() const noexcept override {
    return max_buffer_ ? "GTB(MaxBuffer)" : "GTB";
  }

  void on_spawn(const TaskPtr& task, IssueSink& sink) override;
  void flush(GroupId group, IssueSink& sink) override;
  [[nodiscard]] ExecutionKind decide(const Task& task, unsigned worker_index,
                                     IssueSink& sink) override;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Sorts one group's window, classifies it per Listing 4 and releases all
  /// tasks to the sink.
  void classify_and_release(GroupId group, std::vector<TaskPtr>& window,
                            IssueSink& sink);

  const std::size_t capacity_;
  const bool max_buffer_;
  // Guards buffers_ only; classification runs on moved-out windows.
  support::Mutex mutex_;
  std::unordered_map<GroupId, std::vector<TaskPtr>> buffers_
      SIGRT_GUARDED_BY(mutex_);
};

}  // namespace sigrt
