// Lock-free work-stealing scheduler (replacing the mutex-based master/slave
// work-sharing design of §3 of the paper, while keeping its observable
// semantics: per-worker FIFO issue order, stealing when a queue runs dry,
// and the reliable/NTC worker split of the §6 extension).
//
// Architecture (see docs/architecture.md for the full layer diagram):
//
//   * Each worker owns two Chase–Lev deques — one per *partition*.  The
//     partition encodes the NTC routing rule as data placement instead of
//     the seed's modulo-over-two-counters: tasks that may run anywhere
//     (already classified Approximate/Dropped) live in the kAnyWorker
//     partition; everything else (Accurate or still Undecided) lives in the
//     kReliableOnly partition, which unreliable workers neither own-pop nor
//     steal from.  The partition invariant — an unreliable worker's
//     structures only ever hold kAnyWorker tasks — is what lets thieves
//     skip the seed's racy peek-at-the-queue-front eligibility check.
//
//   * Producers that are not workers (the master, a GTB flush) push raw
//     Task* into a per-worker lock-free MPSC inbox (Treiber chain); the
//     owner splices its inbox into its deque when the deque runs dry, and
//     thieves may raid a victim's inbox the same way, so work routed to a
//     busy worker is never stranded.  A splice of more than one task wakes
//     a thief for the tasks behind the one the splicer runs.  Workers executing a task push newly
//     released dependents straight onto their own deque (pure owner push).
//     Batches keep issue order on both paths; a lone dependent released
//     mid-execution runs next (depth-first), the classic work-stealing
//     locality order.
//
//   * Parking uses a two-phase Parker per worker slot (see parker.hpp):
//     no global sleep mutex, no broadcast wakeups — a producer wakes the
//     routed-to worker, or failing that one parked worker entitled to steal
//     the task.
//
//   * enqueue_bulk() publishes a whole window of ready tasks (a GTB flush,
//     a dependents batch) with one CAS per target inbox and a single fence,
//     then distributes wakes.
//
// Lifetime: every raw Task* inside a deque or inbox carries exactly one
// donated intrusive reference (see task.hpp).  enqueue()/enqueue_bulk()
// consume the caller's reference; the worker that wins the task releases
// it after execution.  There is no shared_ptr, no control block, and no
// per-hop refcount traffic — a task is retained once at enqueue and
// released once at completion.
//
// The execute/dequeue hooks are plain function pointers with an opaque
// context (no std::function): direct calls, no type-erasure allocation,
// trivially hoisted by the compiler.
//
// The inline mode (zero workers) is unchanged from the seed: synchronous
// FIFO execution on the enqueuing thread, used by tests for determinism.
//
// The scheduler also accounts per-worker busy time (task execution only),
// which feeds the energy model's dynamic-power term.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/chase_lev_deque.hpp"
#include "core/parker.hpp"
#include "core/task.hpp"
#include "support/mutex.hpp"
#include "support/rng.hpp"

namespace sigrt {

struct SchedulerStats {
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::int64_t busy_ns = 0;
};

/// Elastic-pool and steal-locality counters (approximate while running).
struct PoolStats {
  std::uint64_t handoffs = 0;        ///< worker slots handed to spares
  std::uint64_t spares_spawned = 0;  ///< threads created beyond the base pool
  std::uint64_t spares_retired = 0;  ///< surplus threads exited after grace
  unsigned live_threads = 0;         ///< threads currently alive
  unsigned idle_spares = 0;          ///< threads parked awaiting a slot
  std::uint64_t near_steals = 0;     ///< deque steals from cache-near victims
  std::uint64_t far_steals = 0;      ///< deque steals across packages
};

class Scheduler {
 public:
  /// `execute` runs one task on the given worker index; it must not throw
  /// (the runtime layer captures task exceptions).  `ctx` is the opaque
  /// pointer passed at construction — the runtime's `this`.
  using ExecuteFn = void (*)(void* ctx, Task& task, unsigned worker);

  /// Optional dequeue hook: called on the executing worker right after it
  /// wins a task and before the body runs.  The runtime wires LQH's
  /// dequeue-time decision point (§3.4) through this, keeping the
  /// classification worker-local.  Must not throw.
  using DequeueFn = void (*)(void* ctx, Task& task, unsigned worker);

  /// The last `unreliable` workers only execute tasks already classified
  /// Approximate/Dropped (see RuntimeConfig::unreliable_workers); clamped
  /// to workers-1.  The steal order follows the host topology.
  Scheduler(unsigned workers, unsigned unreliable, bool steal, void* ctx,
            ExecuteFn execute, DequeueFn on_dequeue = nullptr);

  /// Releases every parked worker, drains visible work, joins, and (in
  /// debug builds) asserts that every deque and inbox is empty.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Hands a ready (gate == 0) task to a worker, consuming the reference
  /// held by `task`; inline mode executes it (and anything it transitively
  /// readies) before returning.
  void enqueue(TaskRef task) { enqueue_owned(task.detach()); }

  /// Hot-path variant: takes ownership of one already-counted reference.
  void enqueue_owned(Task* task) { enqueue_owned(task, /*post_body=*/false); }

  /// Dependent-release variant: identical ownership semantics, but the
  /// caller asserts it is a worker that has FINISHED its task body and
  /// returns straight to its pop loop.  That guarantee is what licenses
  /// the lone-task wake suppression (see enqueue_owned's owner path); a
  /// mid-body push must use enqueue_owned, whose wake is unconditional.
  void enqueue_released(Task* task) { enqueue_owned(task, /*post_body=*/true); }

  /// Batched enqueue: publishes all `count` ready tasks with one inbox CAS
  /// per target worker and a single fence, then wakes up to `count` parked
  /// workers.  Spawn order is preserved per target queue.  Consumes one
  /// reference per task.
  void enqueue_bulk(Task* const* tasks, std::size_t count);

  /// Convenience for scheduler_stress_test: transfers each TaskRef's
  /// reference to the scheduler, leaving the entries empty.
  void enqueue_bulk(std::vector<TaskRef>& tasks);

  /// True when configured with zero worker threads.
  [[nodiscard]] bool inline_mode() const noexcept { return worker_total_ == 0; }

  /// True when the calling thread is one of THIS scheduler's workers
  /// (i.e. a task body is on the call stack).  Thread-local identity, so
  /// nested or concurrent runtimes sharing a thread never confuse workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Helping drain for in-task barriers: acquires and runs ONE task on the
  /// calling thread — the calling worker's own deques/inbox first, then a
  /// steal — and returns true if a task ran.  Returns false when no work is
  /// acquirable, or when the calling thread is neither a worker of this
  /// scheduler nor the inline-mode owner.  Re-entrant: the executed body
  /// may itself spawn, wait (help), or throw (captured by the runtime).
  /// Never parks — the helping waiter parks itself, through
  /// park_worker_for_barrier, once nothing is acquirable.
  bool help_one();

  // --- elastic pool (threads are fungible, slots are identity) -----------
  //
  // A worker SLOT (deques, inbox, Parker, counters) has exactly
  // one owning thread at a time, but which thread owns it can change: a
  // worker about to block — an in-task taskwait past the helping-depth
  // cap, or a declared blocking section — hands its slot to a spare
  // thread and continues DETACHED.  A detached thread may finish its
  // current task body (its enqueues route remotely, its completions go to
  // shared counters) but can no longer help or pop; when its body unwinds
  // it re-enters the spare pool, where surplus threads retire after an
  // idle grace period.  The pool is bounded (base workers + kMaxSpares),
  // so a detach can fail — callers must then keep helping instead.

  /// Hands the calling worker's slot to a spare thread so the caller may
  /// block.  Returns true on success (the caller is now detached — see
  /// above); false when the caller is not a slot-owning worker, the spare
  /// budget is exhausted, or the scheduler is stopping.
  bool detach_for_blocking();

  /// True when the calling thread currently owns a worker slot (a
  /// detached worker is on_worker_thread() but not slot-owning).
  [[nodiscard]] bool owns_current_slot() const noexcept;

  /// True when the calling thread owns a slot in the unreliable (NTC)
  /// range — the work-first inline throttle must not run Undecided tasks
  /// there.
  [[nodiscard]] bool current_worker_unreliable() const noexcept;

  /// Tasks queued in the calling worker's own deques (0 when the caller
  /// is not a slot-owning worker).  Drives the spawn throttle watermark.
  [[nodiscard]] std::size_t own_queue_depth() const noexcept;

  /// Work-first inline execution: runs `task` (one donated reference,
  /// gate == 0) immediately on the calling slot-owning worker, exactly as
  /// if it had been popped — dequeue hook, busy accounting, release.
  /// Caller must hold owns_current_slot().
  void run_now(Task* task);

  /// Two-phase park on the calling worker's slot Parker for a helping
  /// barrier waiter: names that Parker in `announce` (so the barrier's
  /// completion side can wake it — BarrierWaiter::slot), announces,
  /// re-checks `open(ctx)` plus visible work plus shutdown, then blocks
  /// (bounded by `timeout` unless zero).  Returns false without parking
  /// when the re-check fired or the caller is not a slot-owning worker.
  /// Producers wake the slot on new work as usual.
  bool park_worker_for_barrier(std::atomic<Parker*>& announce,
                               bool (*open)(void*), void* ctx,
                               std::chrono::microseconds timeout);

  /// Elastic-pool and steal-locality counters.
  [[nodiscard]] PoolStats pool_stats() const;

  /// Per-worker {near, far} steal counters, indexed by slot (reporting
  /// path — allocates the result vector).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  steal_locality() const;

  /// Fixed at construction before any worker thread starts — safe to read
  /// from workers while the constructor is still emplacing threads.
  [[nodiscard]] unsigned worker_count() const noexcept { return worker_total_; }

  /// Aggregate counters (approximate while workers are running).
  [[nodiscard]] SchedulerStats stats() const;

  /// Cumulative worker busy time in nanoseconds (includes inline execution).
  [[nodiscard]] std::int64_t busy_ns() const;

  /// Diagnostic snapshot (queue sizes, worker states) for deadlock triage.
  void dump(FILE* out) const;

  /// True when `worker` is one of the unreliable (NTC) workers.
  [[nodiscard]] bool is_unreliable(unsigned worker) const noexcept {
    return worker >= reliable_count_;
  }

  [[nodiscard]] unsigned unreliable_count() const noexcept {
    const unsigned n = worker_count();
    return n > reliable_count_ ? n - reliable_count_ : 0;
  }

  /// Busy nanoseconds split into (reliable, unreliable) worker classes —
  /// the energy model charges NTC cores a fraction of the dynamic power.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> busy_ns_split() const;

 private:
  enum class WorkerState : std::uint8_t { Scanning, Running, Sleeping };

  /// Deque-partition rule (replaces the seed's eligibility peek at steal
  /// time): kReliableOnly holds Accurate/Undecided tasks and is invisible
  /// to unreliable workers; kAnyWorker holds finally-classified
  /// Approximate/Dropped tasks and is open to everyone.
  enum Partition : unsigned { kReliableOnly = 0, kAnyWorker = 1 };
  static constexpr unsigned kPartitions = 2;

  struct alignas(64) WorkerSlot {
    ChaseLevDeque<Task*> deque[kPartitions];
    std::atomic<Task*> inbox[kPartitions]{nullptr, nullptr};

    /// Busy time in raw TSC cycles (support::CycleClock); converted to ns
    /// only on the cold stats path.
    std::atomic<std::uint64_t> busy_cycles{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    /// Steal locality: successful deque steals split by victim distance
    /// (near = SMT sibling or shared LLC, far = cross-package).
    std::atomic<std::uint64_t> near_steals{0};
    std::atomic<std::uint64_t> far_steals{0};
    std::atomic<WorkerState> state{WorkerState::Scanning};  // diagnostics

    support::Xoshiro256 rng;  ///< owner-only: steal-victim randomization

    /// Victim order, nearest-first (topology tiers); immutable after
    /// construction.  near_count prefixes the cache-near victims.
    std::vector<unsigned> steal_order;
    std::size_t near_count = 0;
  };

  /// One pool thread (base worker or spare).  `exited` lets the spawner
  /// reap finished threads opportunistically under pool_mutex_.
  struct PoolThread {
    std::thread th;
    std::atomic<bool> exited{false};
  };

  void thread_main(PoolThread* self, int slot);
  /// slot >= 0 binds the new thread to that slot immediately
  /// (construction); -1 spawns a spare that adopts from free_slots_.
  void spawn_pool_thread_locked(int slot) SIGRT_REQUIRES(pool_mutex_);
  void reap_exited_locked() SIGRT_REQUIRES(pool_mutex_);

  void worker_loop(unsigned index);
  void run_task(Task* raw, unsigned index);
  /// Dequeue hook + body, returning the busy cycles EXCLUSIVE of execution
  /// frames nested inside the body (helping barriers re-enter execution on
  /// this thread; their cycles are charged once, by the inner frame).
  std::uint64_t run_body_timed(Task& task, unsigned worker);
  void drain_inline();
  void enqueue_owned(Task* task, bool post_body);

  /// Owner-side work acquisition: own deques -> own inboxes -> stealing.
  Task* acquire_work(unsigned index);
  Task* try_steal(unsigned thief);
  /// Moves worker `from`'s whole inbox[part] chain onto the calling worker
  /// `index`'s deque[part] (its own inbox, or a victim's in a raid), so the
  /// caller's next pop returns the oldest task; moving more than one task
  /// wakes one parked worker entitled to `part`.  Returns the count moved.
  std::uint64_t splice_inbox(unsigned index, unsigned from, Partition part);

  /// True when any structure this worker is entitled to take from could
  /// hold work.  Only meaningful between prepare_park and park.
  [[nodiscard]] bool has_visible_work(unsigned index) const;

  void dispatch_remote(Task* task, Partition part);
  /// Tasks per round-robin step: consecutive remote enqueues share a target
  /// (and its wake) before rotating to the next worker.
  static constexpr unsigned kRouteChunk = 16;
  /// Yield-and-recheck rounds before a worker commits to parking.
  static constexpr int kParkSpins = 3;
  unsigned pick_target(Partition part) noexcept;
  /// Wakes `preferred` if parked, otherwise up to `count` parked workers
  /// entitled to partition `part`.  Pass kNoPreference to skip the first.
  unsigned wake_workers(unsigned preferred, Partition part, unsigned count);
  static constexpr unsigned kNoPreference = ~0u;

  [[nodiscard]] static Partition partition_of(const Task& task) noexcept {
    return eligible_for_unreliable(task) ? kAnyWorker : kReliableOnly;
  }

  /// May `task` run on an unreliable worker?  When its classification is
  /// already final and non-accurate — or when the runtime marked it
  /// unreliable_ok: an accurate task whose check() validator plus redo
  /// budget make unreliable execution recoverable (the §6 check/redo
  /// contract; a redo clears the flag so retries pin to reliable workers).
  [[nodiscard]] static bool eligible_for_unreliable(const Task& task) noexcept {
    return task.kind == ExecutionKind::Approximate ||
           task.kind == ExecutionKind::Dropped || task.unreliable_ok;
  }

  void assert_enqueue_ok(const Task& task);

  const bool steal_enabled_;
  unsigned worker_total_ = 0;
  unsigned reliable_count_ = 0;
  void* ctx_ = nullptr;
  ExecuteFn execute_ = nullptr;
  DequeueFn on_dequeue_ = nullptr;

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  /// Where slot i's owner sleeps: one cache-aligned Parker per slot, in a
  /// contiguous array apart from the WorkerSlots.  Producers probe and CAS
  /// these on every wake decision; with the Parker embedded in WorkerSlot
  /// instead, bench_micro_spawn (8 workers, 4-vCPU x86-64) measured 1.44x
  /// the ns per spawn.
  std::vector<Parker> parkers_;
  std::atomic<unsigned> next_reliable_{0};  ///< round-robin over reliable workers
  std::atomic<unsigned> next_any_{0};       ///< round-robin over all workers
  std::atomic<bool> stopping_{false};

  // --- elastic pool state (all guarded by pool_mutex_ unless atomic) -----
  /// Spare threads allowed beyond the base worker count.  When the budget
  /// is exhausted a too-deep waiter keeps helping (liveness over the stack
  /// bound).
  static constexpr unsigned kMaxSpares = 16;
  /// Idle grace before a surplus spare retires.
  static constexpr std::chrono::milliseconds kSpareGrace{5};
  mutable support::Mutex pool_mutex_;
  std::condition_variable pool_cv_;
  std::vector<std::unique_ptr<PoolThread>> pool_threads_
      SIGRT_GUARDED_BY(pool_mutex_);
  /// Slots awaiting a new owner.
  std::vector<unsigned> free_slots_ SIGRT_GUARDED_BY(pool_mutex_);
  /// Threads parked in pool_cv_.
  unsigned idle_spares_ SIGRT_GUARDED_BY(pool_mutex_) = 0;
  unsigned live_threads_ SIGRT_GUARDED_BY(pool_mutex_) = 0;
  std::uint64_t handoffs_ SIGRT_GUARDED_BY(pool_mutex_) = 0;
  std::uint64_t spares_spawned_ SIGRT_GUARDED_BY(pool_mutex_) = 0;
  std::uint64_t spares_retired_ SIGRT_GUARDED_BY(pool_mutex_) = 0;
  /// Completions by detached threads (their old slot's single-writer
  /// counters belong to the new owner).
  std::atomic<std::uint64_t> detached_busy_cycles_{0};
  std::atomic<std::uint64_t> detached_executed_{0};

  // Inline-mode state (single-threaded by construction).  Entries carry the
  // same donated reference as the threaded deques.
  std::deque<Task*> inline_queue_;
  bool inline_draining_ = false;
  std::uint64_t inline_busy_cycles_ = 0;
  std::uint64_t inline_executed_ = 0;
};

}  // namespace sigrt
