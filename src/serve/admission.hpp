// The hand-off between submitting client threads and the server's
// dispatcher tier: one EdfQueue per request class, the only queue stage.
//
// Server::submit pushes an admitted request straight into its class's heap;
// dispatchers pop the earliest deadline.  Within a class, requests issue to
// the runtime in deadline order (not arrival order), throttled by the
// class's dispatch window, so under backlog the p99 the QosController
// regulates reflects urgency.  Spinlocked: push/pop are a few dozen
// instructions, and with N dispatchers the lock also serializes the heap's
// issue order.  The *bound* is not here — admission control counts
// in-flight requests (heaped + executing) per class and per tenant, not
// heap depth, so back-pressure survives the hand-off into the scheduler;
// see Server::submit.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "serve/request.hpp"
#include "support/spinlock.hpp"

namespace sigrt::serve {

/// Min-heap on Request::deadline_ns.  The backing vector grows to the
/// high-water mark once and is then reused — steady-state traffic touches
/// no allocator here.  size() is readable lock-free (a relaxed mirror of
/// the heap size) so dispatch-eligibility scans and completion-side wake
/// checks never take the lock; the seq_cst fences of the dispatcher park
/// (Server::dispatcher_loop) order it against the parked flags.
class EdfQueue {
 public:
  EdfQueue() = default;
  EdfQueue(const EdfQueue&) = delete;
  EdfQueue& operator=(const EdfQueue&) = delete;

  SIGRT_HOT_PATH void push(Request* r) {
    support::SpinLockGuard lock(lock_);
    heap_.push_back(r);
    sift_up(heap_.size() - 1);
    size_.store(heap_.size(), std::memory_order_relaxed);
  }

  /// Pops the earliest deadline, or nullptr when empty.
  [[nodiscard]] SIGRT_HOT_PATH Request* try_pop() {
    support::SpinLockGuard lock(lock_);
    if (heap_.empty()) return nullptr;
    Request* top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    size_.store(heap_.size(), std::memory_order_relaxed);
    return top;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

 private:
  void sift_up(std::size_t i) noexcept SIGRT_REQUIRES(lock_) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (heap_[parent]->deadline_ns <= heap_[i]->deadline_ns) break;
      std::swap(heap_[parent], heap_[i]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) noexcept SIGRT_REQUIRES(lock_) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t smallest = i;
      const std::size_t l = 2 * i + 1, r = 2 * i + 2;
      if (l < n && heap_[l]->deadline_ns < heap_[smallest]->deadline_ns) {
        smallest = l;
      }
      if (r < n && heap_[r]->deadline_ns < heap_[smallest]->deadline_ns) {
        smallest = r;
      }
      if (smallest == i) return;
      std::swap(heap_[smallest], heap_[i]);
      i = smallest;
    }
  }

  support::SpinLock lock_;
  std::vector<Request*> heap_ SIGRT_GUARDED_BY(lock_);
  /// Relaxed lock-free mirror of heap_.size() — the documented escape
  /// hatch for dispatch-eligibility scans that must not take lock_.
  std::atomic<std::size_t> size_{0};
};

}  // namespace sigrt::serve
