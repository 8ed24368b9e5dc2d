// Two-phase park/unpark (Parker) and the barrier-waiter handle that wires a
// task's last-child completion, a group's or the runtime's quiescence, or a
// wait_on fence to whatever the waiting thread is currently sleeping on.
//
// The lost-wakeup problem: a thread checks its wait condition, finds it
// closed, and goes to sleep; a producer opens the condition in between and
// its notification finds nobody waiting.  Parker fixes it without a shared
// lock, Dekker-style:
//
//   sleeper                               producer
//   -------                               --------
//   1. prepare_park(): state=PARKED       1. publish (open the condition)
//      + seq_cst fence                       + seq_cst fence
//   2. re-check the condition             2. read the sleeper's state
//   3a. open   -> cancel_park()           3. unpark(): CAS PARKED->NOTIFIED,
//   3b. closed -> park(): block              wake
//
// The two seq_cst fences guarantee at least one side observes the other:
// either the sleeper's re-check (2) sees the publish, or the producer's
// state read (2) sees PARKED and delivers a wake that park() consumes.
// The mutex+condvar are touched only on the slow (actually sleeping) path;
// unparking a running thread is one load and no syscall.  Users: each
// scheduler worker slot (producers wake the slot that received work), each
// serve dispatcher, and each barrier waiter below.
//
// Barrier waiters.  Every taskwait — from a task body or from any other
// thread — runs through one loop (Runtime::help_until).  A waiter inside a
// task body helps, executing other tasks; when nothing is acquirable (or
// the waiter owns no worker slot and may not help) the awaited work is in
// flight on other threads, and the waiter should sleep until it finishes
// rather than poll.  Completions notify it directly:
//
//   waiter                                 completer (last child, last
//   ------                                 ---------  group member, fence)
//   1. register waiter on task/list        1. counter.fetch_sub == 1 (or
//      + seq_cst fence                        flag store) + seq_cst fence
//   2. re-check barrier + queues           2. load waiter pointer(s)
//   3a. open/work -> don't park            3. waiter->notify()
//   3b. closed    -> park
//
// This is the Parker pairing again, so a parked waiter cannot miss the
// zero crossing.
//
// A waiter may be parked in one of two ways — on its *scheduler slot's*
// Parker (a slot-owning worker: producer wakes keep reaching it, so new
// work still gets helped) or on its own Parker (a thread that owns no
// slot: a plain thread, or a worker that handed its slot to a spare and is
// blocked for real).  notify() covers both targets; a notification aimed
// at a stale target only wakes somebody spuriously, and every park in this
// codebase re-checks its condition on wake.
//
// Lifetime: BarrierWaiter handles are leased per thread from an immortal
// freelist (this_thread_waiter()).  A completer that loaded the pointer
// races only against the waiter *moving on*, never against the memory
// dying — a late notify() hits a pooled handle that is either idle or
// owned by some other thread, both harmless.  The freelist head is a
// global, so handles stay reachable at exit (no leak reports).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <vector>

#include "support/mutex.hpp"

namespace sigrt {

/// One-thread two-phase park/unpark.  Cache-line aligned: producers probe
/// parked() on other threads' Parkers on every wake decision.
class alignas(64) Parker {
 public:
  /// Phase 1 (owner thread): announce intent to sleep.  Follow with a
  /// re-check of the wait condition, then cancel_park() or park().
  void prepare_park() noexcept {
    state_.store(kParked, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Re-check found the condition satisfied: revoke (swallowing any
  /// notification that raced in — the condition is visible either way).
  void cancel_park() noexcept {
    state_.exchange(kIdle, std::memory_order_acq_rel);
  }

  /// Phase 2: block until unpark() arrives (returns immediately when one
  /// raced in between prepare and park).
  void park() {
    support::MutexLock lock(mutex_);
    while (state_.load(std::memory_order_acquire) == kParked) {
      cv_.wait(lock.native());
    }
    state_.store(kIdle, std::memory_order_release);
  }

  /// Timed phase 2: wakes on notification or after `timeout` (whichever is
  /// first) — barrier waiters under a buffering policy must surface
  /// periodically to re-flush the policy window.  A timeout that races an
  /// unpark() consumes it (the owner is awake either way); an unpark() that
  /// lands after the kIdle store fails its CAS.  Returns true when an
  /// unpark() woke it.
  bool park_for(std::chrono::microseconds timeout) {
    support::MutexLock lock(mutex_);
    const bool notified = cv_.wait_for(lock.native(), timeout, [this] {
      return state_.load(std::memory_order_acquire) != kParked;
    });
    state_.store(kIdle, std::memory_order_release);
    return notified;
  }

  /// Any thread: wake the owner iff it is parked (or mid-park).  No token
  /// is stored for an idle owner — the two-phase re-check makes one
  /// unnecessary.  Returns true when a wake was delivered, false when the
  /// owner was not parked (it will see the published state on its own).
  bool unpark() noexcept {
    std::uint32_t expected = kParked;
    if (!state_.compare_exchange_strong(expected, kNotified,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      return false;
    }
    // Lock/unlock pairs with the owner's state check under the same mutex
    // in park(): the wake cannot land between that check and the wait.
    { support::MutexLock lock(mutex_); }
    cv_.notify_one();
    return true;
  }

  /// Cheap probe for wake-target selection (racy by design: a false
  /// negative only means the producer skips a CAS it would have lost).
  [[nodiscard]] bool parked() const noexcept {
    return state_.load(std::memory_order_acquire) == kParked;
  }

 private:
  enum : std::uint32_t { kIdle = 0, kParked = 1, kNotified = 2 };
  std::atomic<std::uint32_t> state_{kIdle};
  support::Mutex mutex_;  // slow path only: actual sleeping
  std::condition_variable cv_;
};

/// The wake-target handle a barrier waiter registers on a Task (children
/// scope) or a WaiterList (quiescence scope), or hands to its wait_on
/// fence.  notify() is safe from any thread at any time: it touches this
/// handle, which the freelist keeps alive for the program's lifetime, and
/// the slot Parker it names, which lives as long as its scheduler.
struct BarrierWaiter {
  Parker parker;

  /// The scheduler slot Parker the waiter sleeps on while it owns a worker
  /// slot (set by Scheduler::park_worker_for_barrier); nullptr while it
  /// sleeps on `parker` (or is not parked at all).  Atomic because a STALE
  /// notifier (from a barrier this waiter already left — tolerated, it is
  /// just a spurious wake) may read it while the waiter re-registers.
  std::atomic<Parker*> slot{nullptr};

  BarrierWaiter* next_free = nullptr;  ///< freelist linkage (under its mutex)

  void notify() noexcept {
    if (Parker* p = slot.load(std::memory_order_acquire)) p->unpark();
    parker.unpark();
  }
};

/// The parked waiters of one quiescence barrier: a group's pending == 0
/// (wait_group) or the runtime's (top-level wait_all).  Waiters add
/// themselves before their re-check and remove themselves on the way out;
/// the completion that drives the count to zero calls notify_all().
/// Cold path: only waiters with nothing left to help land here, and the
/// vector keeps its capacity, so the steady state allocates nothing.
class WaiterList {
 public:
  void add(BarrierWaiter* w) {
    support::MutexLock lock(mutex_);
    waiters_.push_back(w);
  }

  void remove(BarrierWaiter* w) {
    support::MutexLock lock(mutex_);
    for (BarrierWaiter*& slot : waiters_) {
      if (slot == w) {
        slot = waiters_.back();
        waiters_.pop_back();
        return;
      }
    }
  }

  /// Completer side, right after the decrement that reached zero.  The
  /// fence is the completer's half of the Dekker pairing above: either a
  /// waiter's post-registration re-check sees the zero, or this scan sees
  /// the registration.  Waiters are notified in place, not removed — a
  /// duplicate notify is only a spurious wake.
  void notify_all() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    support::MutexLock lock(mutex_);
    for (BarrierWaiter* w : waiters_) w->notify();
  }

 private:
  support::Mutex mutex_;
  std::vector<BarrierWaiter*> waiters_ SIGRT_GUARDED_BY(mutex_);
};

namespace detail {

struct WaiterFreelist {
  support::Mutex mutex;
  BarrierWaiter* head SIGRT_GUARDED_BY(mutex) = nullptr;
};

inline WaiterFreelist& waiter_freelist() {
  // Function-local static: immortal (never destroyed before thread-local
  // leases), and the head keeps every handle reachable at exit.
  static WaiterFreelist* fl = new WaiterFreelist;
  return *fl;
}

/// Thread-lifetime lease: returns the handle to the freelist at thread
/// exit, so retiring spare threads recycle instead of dangling.
struct WaiterLease {
  BarrierWaiter* w = nullptr;
  ~WaiterLease() {
    if (w == nullptr) return;
    w->slot.store(nullptr, std::memory_order_relaxed);
    WaiterFreelist& fl = waiter_freelist();
    support::MutexLock lock(fl.mutex);
    w->next_free = fl.head;
    fl.head = w;
  }
};

}  // namespace detail

/// The calling thread's pooled barrier-waiter handle (allocated on first
/// use, recycled across thread lifetimes — steady-state barrier parks
/// allocate nothing).
inline BarrierWaiter* this_thread_waiter() {
  thread_local detail::WaiterLease lease;
  if (lease.w == nullptr) {
    detail::WaiterFreelist& fl = detail::waiter_freelist();
    support::MutexLock lock(fl.mutex);
    if (fl.head != nullptr) {
      lease.w = fl.head;
      fl.head = lease.w->next_free;
      lease.w->next_free = nullptr;
    } else {
      lease.w = new BarrierWaiter;
    }
  }
  return lease.w;
}

}  // namespace sigrt
