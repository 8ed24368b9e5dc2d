// Chase–Lev work-stealing deque (Chase & Lev, SPAA'05), following the C11
// formulation of Lê, Pop, Cohen & Zappa Nardelli, "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP'13) — but with the
// standalone fences replaced by orderings on the `top`/`bottom` atomics
// themselves.  ThreadSanitizer does not model std::atomic_thread_fence, so
// the fence-based variant reports false races between an owner's pre-push
// writes and a thief's post-steal reads; release/acquire (and seq_cst where
// the algorithm needs the StoreLoad barrier) on the variables carries the
// same guarantees and is fully TSan-visible.  The cost is one seq_cst store
// per pop instead of one fence — identical on x86.
//
// Single-owner semantics: exactly one thread — the owner — may push() and
// pop() at the bottom; any number of thieves may steal() from the top
// concurrently.  All operations are lock-free; pop() and steal() resolve
// the last-element race with one CAS on `top`.
//
// The deque stores raw pointers.  It never owns what it stores: callers
// keep the pointee alive while it is in flight (the scheduler donates one
// intrusive Task reference per enqueued pointer — see task.hpp) and the
// thread that wins the pop or steal releases that reference when done.
//
// The ring grows geometrically when full.  Retired rings cannot be freed
// immediately — a racing thief may still be reading a slot through a stale
// ring pointer — so they are chained and reclaimed in the destructor, which
// runs strictly after all worker threads have joined.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <type_traits>

namespace sigrt {

template <typename T>
class ChaseLevDeque {
  static_assert(std::is_pointer_v<T>,
                "ChaseLevDeque stores raw pointers; ownership stays outside");

 public:
  explicit ChaseLevDeque(std::int64_t initial_capacity = 256) {
    assert(initial_capacity > 0 &&
           (initial_capacity & (initial_capacity - 1)) == 0 &&
           "capacity must be a power of two");
    ring_.store(new Ring(initial_capacity), std::memory_order_relaxed);
  }

  ~ChaseLevDeque() {
    Ring* r = ring_.load(std::memory_order_relaxed);
    while (r != nullptr) {
      Ring* prev = r->prev;
      delete r;
      r = prev;
    }
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only: append `item` at the bottom.
  void push(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t > r->capacity - 1) {
      r = grow(r, t, b);
    }
    r->slot(b).store(item, std::memory_order_relaxed);
    // Release store publishes the slot write — and every plain write the
    // owner made to *item before pushing — to any thread that acquires
    // `bottom`.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only: remove and return the bottom (most recently pushed) item;
  /// nullptr when the deque is empty.
  T pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* r = ring_.load(std::memory_order_relaxed);
    // seq_cst store/load pair: the reservation of slot b must be globally
    // ordered before our read of `top` (StoreLoad), mirroring the fence in
    // the PPoPP'13 version.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    T item = nullptr;
    if (t <= b) {
      item = r->slot(b).load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race against thieves for it via `top`.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          item = nullptr;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Any thread: remove and return the top (oldest) item; nullptr when the
  /// deque is empty or the steal lost a race (callers just move on to the
  /// next victim either way).
  T steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    T item = nullptr;
    if (t < b) {
      Ring* r = ring_.load(std::memory_order_acquire);
      item = r->slot(t).load(std::memory_order_relaxed);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return nullptr;  // lost the race; the read item is stale
      }
    }
    return item;
  }

  /// Any thread: conservative emptiness probe (used by the park re-check;
  /// callers tolerate staleness in the "false" direction only when paired
  /// with the Parker's two-phase protocol).
  [[nodiscard]] bool empty() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return t >= b;
  }

  /// Approximate size snapshot (diagnostics only).
  [[nodiscard]] std::int64_t size() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return b > t ? b - t : 0;
  }

 private:
  struct Ring {
    explicit Ring(std::int64_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<T>[cap]) {}
    ~Ring() { delete[] slots; }

    [[nodiscard]] std::atomic<T>& slot(std::int64_t i) const noexcept {
      return slots[i & mask];
    }

    const std::int64_t capacity;
    const std::int64_t mask;
    std::atomic<T>* const slots;
    Ring* prev = nullptr;  ///< retired predecessor, freed in ~ChaseLevDeque
  };

  /// Owner only: double the ring, copying the live range [t, b).
  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    Ring* bigger = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    bigger->prev = old;
    ring_.store(bigger, std::memory_order_release);
    return bigger;
  }

  // top_ is CAS-contended by thieves; bottom_ is owner-written on every
  // push/pop.  Separate cache lines keep steals from bouncing the owner's
  // hot line.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Ring*> ring_{nullptr};
};

}  // namespace sigrt
