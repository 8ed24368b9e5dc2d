// Task descriptor: the runtime-side image of one `#pragma omp task
// significant(...) approxfun(...) in(...) out(...)` annotation.
//
// Lifecycle (the zero-allocation contract):
//
//   * Tasks live in slab slots leased from the global task pool
//     (support/task_pool.hpp) — allocate via make_task(), never new/delete.
//   * Lifetime is an intrusive atomic refcount inside the Task itself
//     (retain()/release(), smart-pointer'd by TaskRef).  There is no
//     shared_ptr control block and no separate allocation: the scheduler
//     circulates raw Task* that each carry one donated reference.
//   * When the last reference drops, the slot is reset (bodies destroyed,
//     buffers keep their capacity) and returned to its owning pool shard —
//     locally when freed by the spawning thread, through the shard's MPSC
//     remote-free chain when freed by a worker.
//   * Bodies are InlineFn (64-byte small-buffer callables): captures within
//     the SBO limit never touch the heap.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/types.hpp"
#include "dep/block_tracker.hpp"
#include "support/inline_fn.hpp"
#include "support/task_pool.hpp"

namespace sigrt {

class Task;
class TaskRef;
struct BarrierWaiter;  // core/parker.hpp

/// Pool behind make_task(): per-thread freelists, MPSC remote-free return.
using TaskPool = support::SlabPool<Task>;

/// A unit of work with a significance value and an optional approximate
/// body.  Tasks are created by a spawning thread, classified by a policy,
/// gated on their data dependencies and executed (once) by a worker.
class Task final : public dep::Node, public support::PoolSlot<Task> {
 public:
  Task() = default;

  // --- immutable after spawn -------------------------------------------
  support::InlineFn accurate;     ///< required task body
  support::InlineFn approximate;  ///< optional approxfun(); empty => drop
  support::InlinePred check;      ///< optional result validator: false => redo
  float significance = 1.0f;      ///< in [0, 1]; 1 forces accurate, 0 forces approximate
  GroupId group = kDefaultGroup;
  TaskId id = 0;
  bool internal = false;  ///< runtime-internal task (wait_on fence): excluded from stats

  // --- check/redo resilience ---------------------------------------------
  // An accurate task whose body throws or whose check() rejects the result
  // is re-executed — up to max_redos times — instead of failing the barrier.
  // Both fields are read/written only by the worker currently executing the
  // task (execution is exclusive; a redo re-enqueue happens-before the next
  // execution through the scheduler's publish), so they need no atomicity.
  std::uint8_t max_redos = 0;   ///< redo budget (0 = fail fast, no retry)
  std::uint8_t redos_done = 0;  ///< attempts consumed so far

  /// True when this task may execute on an unreliable (NTC) worker even
  /// though it is accurate: its check() validator guards the result (§6
  /// contract — unreliable execution is safe iff a validator can reject a
  /// corrupted outcome).  Cleared on redo so every re-execution lands in
  /// the reliable-only partition.
  bool unreliable_ok = false;

  /// True when the task registered in()/out() clauses with the dependence
  /// tracker.  A task without a footprint can never be named a predecessor,
  /// so its completion skips the tracker's stripe locks entirely.
  bool has_footprint = false;

  // --- nested parallelism -------------------------------------------------

  /// The task whose body spawned this one; nullptr for top-level spawns.
  /// A child pins its parent with one retained reference from spawn until
  /// its own completion decrements `children`, so the counter stays valid
  /// even when the parent's body returns before the child runs.
  Task* parent = nullptr;

  /// Live (spawned but not yet completed) children of this task.  An
  /// in-task taskwait is a helping barrier on exactly this counter: the
  /// completion-side fetch_sub is acq_rel and the waiter's load is acquire,
  /// so every child's side effects are visible when the barrier opens.
  std::atomic<std::uint32_t> children{0};

  /// Event-driven taskwait: the (single) thread blocked in this task's
  /// in-task wait_all() or wait_on() parks behind this handle.  The
  /// completing side of the last child reads it after a seq_cst fence
  /// (Dekker pairing with the waiter's register-then-recheck) and calls
  /// notify(); a wait_on fence notifies the waiter's handle directly.  Handles
  /// are pooled immortally (core/parker.hpp), so a stale notify racing a
  /// waiter's retirement touches live memory and is at worst a spurious
  /// wake.
  std::atomic<BarrierWaiter*> waiter{nullptr};

  /// Classification result.  Written exactly once before the task becomes
  /// runnable (GTB) or at dequeue time on the executing worker (LQH),
  /// then read only by that worker — no concurrent access in either case.
  ExecutionKind kind = ExecutionKind::Undecided;

  // --- release gate ------------------------------------------------------
  // A task becomes runnable when its gate reaches zero.  The gate starts at
  // (number of unfinished predecessors) + 1, where the +1 is the policy hold:
  // GTB keeps it until it classifies the task.  Whoever
  // performs the final decrement enqueues the task.
  std::atomic<std::uint32_t> gate{0};

  /// Decrements the gate; returns true when this call made the task runnable.
  [[nodiscard]] bool release_one() noexcept {
    return gate.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }

  // --- intrusive lifetime -------------------------------------------------

  /// Adds one reference.  Relaxed is sufficient: a thread can only retain
  /// through a pointer it already owns a reference for (or the pool's
  /// freshly allocated slot), so the count can never be observed at zero.
  void retain() noexcept { refs_.fetch_add(1, std::memory_order_relaxed); }

  /// Drops one reference; the last release resets the task and returns its
  /// slot to the pool.  acq_rel so every side of the task's life
  /// happens-before the reset, on whichever thread performs it.
  void release() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) recycle_to_pool();
  }

  /// Pool hook: restores the slot to its freshly-constructed state on the
  /// freeing thread.  Bodies are destroyed eagerly (captured resources
  /// release now, not at reuse); the dependents vector keeps its capacity.
  void reset_for_reuse() noexcept {
    accurate.reset();
    approximate.reset();
    check.reset();
    significance = 1.0f;
    group = kDefaultGroup;
    id = 0;
    internal = false;
    max_redos = 0;
    redos_done = 0;
    unreliable_ok = false;
    has_footprint = false;
    parent = nullptr;
    children.store(0, std::memory_order_relaxed);
    waiter.store(nullptr, std::memory_order_relaxed);
    kind = ExecutionKind::Undecided;
    gate.store(0, std::memory_order_relaxed);
    next_ready = nullptr;
#ifndef NDEBUG
    debug_enqueues.store(0, std::memory_order_relaxed);
#endif
    reset_dep_state();
  }

  // --- scheduler linkage --------------------------------------------------

  /// Intrusive link for the per-worker MPSC inbox (Treiber chain).  Written
  /// by the enqueuing thread before the pointer is published (release) and
  /// consumed by the thread that wins the pop/steal (acquire), so it needs
  /// no atomicity of its own.
  Task* next_ready = nullptr;

#ifndef NDEBUG
  // Debug-only diagnostics: an atomic RMW on every enqueue is measurable on
  // the spawn hot path, so Release builds compile it out entirely.
  std::atomic<std::uint8_t> debug_enqueues{0};
#endif

 private:
  friend TaskRef make_task();

  /// dep::Node lifetime hooks: the tracker pins tasks through these.
  void ref_retain() noexcept override { retain(); }
  void ref_release() noexcept override { release(); }

  void recycle_to_pool() noexcept;  // task.cpp: TaskPool::instance().recycle

  std::atomic<std::uint32_t> refs_{0};
};

/// Intrusive smart pointer over Task: copy retains, move steals, destructor
/// releases.  adopt()/detach() convert to and from raw owned pointers — the
/// scheduler's circulation currency.
class TaskRef {
 public:
  constexpr TaskRef() noexcept = default;
  constexpr TaskRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  /// Wraps an already-owned reference without retaining.
  [[nodiscard]] static TaskRef adopt(Task* task) noexcept {
    TaskRef r;
    r.ptr_ = task;
    return r;
  }

  TaskRef(const TaskRef& other) noexcept : ptr_(other.ptr_) {
    if (ptr_ != nullptr) ptr_->retain();
  }
  TaskRef(TaskRef&& other) noexcept : ptr_(other.ptr_) { other.ptr_ = nullptr; }
  TaskRef& operator=(const TaskRef& other) noexcept {
    TaskRef(other).swap(*this);
    return *this;
  }
  TaskRef& operator=(TaskRef&& other) noexcept {
    TaskRef(std::move(other)).swap(*this);
    return *this;
  }
  ~TaskRef() {
    if (ptr_ != nullptr) ptr_->release();
  }

  void swap(TaskRef& other) noexcept { std::swap(ptr_, other.ptr_); }
  void reset() noexcept {
    if (ptr_ != nullptr) {
      ptr_->release();
      ptr_ = nullptr;
    }
  }

  /// Transfers ownership of the reference to the caller.
  [[nodiscard]] Task* detach() noexcept {
    Task* t = ptr_;
    ptr_ = nullptr;
    return t;
  }

  [[nodiscard]] Task* get() const noexcept { return ptr_; }
  Task& operator*() const noexcept { return *ptr_; }
  Task* operator->() const noexcept { return ptr_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return ptr_ != nullptr;
  }
  friend bool operator==(const TaskRef& a, const TaskRef& b) noexcept {
    return a.ptr_ == b.ptr_;
  }

 private:
  Task* ptr_ = nullptr;
};

/// Allocates a task from the pool (refcount 1, fully reset state).
[[nodiscard]] TaskRef make_task();

}  // namespace sigrt
