// Tiny test-and-test-and-set spinlock for critical sections of a few dozen
// instructions (a dependence-region update, an EDF heap push).  All
// synchronization goes through one std::atomic<bool>, so ThreadSanitizer
// sees every acquire/release edge.  After a bounded burst of pause
// instructions the waiter yields its timeslice — on an oversubscribed or
// single-CPU box the lock holder needs the CPU more than the spinner does.
#pragma once

#include <atomic>
#include <thread>

#include "support/thread_annotations.hpp"

namespace sigrt::support {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

class SIGRT_CAPABILITY("spinlock") SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() noexcept SIGRT_ACQUIRE() {
    int spins = 0;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      // Spin on the cache-local load, not the RMW, so waiters don't ping
      // the line while the holder works.
      do {
        if (++spins < kSpinLimit) {
          cpu_relax();
        } else {
          std::this_thread::yield();
        }
      } while (locked_.load(std::memory_order_relaxed));
    }
  }

  [[nodiscard]] bool try_lock() noexcept SIGRT_TRY_ACQUIRE(true) {
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept SIGRT_RELEASE() {
    locked_.store(false, std::memory_order_release);
  }

 private:
  static constexpr int kSpinLimit = 64;
  std::atomic<bool> locked_{false};
};

/// Scoped lock over SpinLock — the annotated stand-in for
/// std::lock_guard<SpinLock>, which TSA cannot see through.
class SIGRT_SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& l) SIGRT_ACQUIRE(l) : lock_(l) {
    lock_.lock();
  }
  ~SpinLockGuard() SIGRT_RELEASE() { lock_.unlock(); }

  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace sigrt::support
