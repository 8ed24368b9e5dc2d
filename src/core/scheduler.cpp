#include "core/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "support/timer.hpp"

namespace sigrt {

namespace {

// Worker identity for the owner fast path: a worker releasing a dependent
// pushes it straight onto its own deque (no CAS, no inbox) when the
// partition rule allows.  The scheduler pointer disambiguates nested or
// concurrent runtimes sharing a thread.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local unsigned tls_worker = 0;

// Slot ownership (elastic pool): set while this thread owns worker slot
// tls_worker.  A thread that detached for blocking keeps tls_scheduler /
// tls_worker (its task body is still on the stack) but loses this flag —
// every owner-only path (deque push/pop, single-writer counters, helping)
// must check it, because a spare thread may own the slot concurrently.
thread_local bool tls_owns_slot = false;

// Cycles charged by execution frames nested inside the current one: an
// in-task taskwait re-enters execution on this thread (help_one), and the
// outer frame's wall-clock span includes every inner task it helped run.
// Each frame subtracts its inner charges so busy accounting is EXCLUSIVE —
// summing to real execution time instead of inflating with nesting depth.
thread_local std::uint64_t tls_inner_cycles = 0;

}  // namespace

Scheduler::Scheduler(unsigned workers, unsigned unreliable, bool steal,
                     void* ctx, ExecuteFn execute, DequeueFn on_dequeue)
    : steal_enabled_(steal),
      ctx_(ctx),
      execute_(execute),
      on_dequeue_(on_dequeue),
      parkers_(workers) {
  assert(execute_ != nullptr && "scheduler needs an execute callback");
  worker_total_ = workers;
  if (workers > 0) {
    unreliable = std::min(unreliable, workers - 1);
    reliable_count_ = workers - unreliable;
  } else {
    reliable_count_ = 1;  // the inline pseudo-worker (index 0) is reliable
  }
  slots_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    auto slot = std::make_unique<WorkerSlot>();
    // Deterministic per-worker stream; only used for steal-victim
    // randomization, so it does not affect steal-off reproducibility.
    slot->rng = support::Xoshiro256(0x51eea1u + i * 0x9e3779b97f4a7c15ULL);
    slots_.push_back(std::move(slot));
  }
  {
    support::MutexLock lk(pool_mutex_);
    pool_threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      spawn_pool_thread_locked(static_cast<int>(i));
    }
  }
}

Scheduler::~Scheduler() {
  // Shutdown ordering: publish `stopping` first (seq_cst), then release
  // every parked worker.  A worker between prepare_park and park either
  // sees the flag in its re-check or consumes the wake delivered by the
  // unpark below — a lost wakeup (and a hung join) is impossible.  Workers
  // drain all work still visible to them before exiting.
  stopping_.store(true, std::memory_order_seq_cst);
  for (Parker& p : parkers_) p.unpark();
  {
    // Spares parked in the pool see `stopping` on wake and exit; a detach
    // in flight holds pool_mutex_, so by the time we collect the thread
    // list below no further spawns are possible.
    support::MutexLock lk(pool_mutex_);
    pool_cv_.notify_all();
  }
  std::vector<std::thread> threads;
  {
    support::MutexLock lk(pool_mutex_);
    threads.swap(pool_threads_);
  }
  for (std::thread& th : threads) th.join();

  // A quiesced shutdown leaves every deque and inbox empty.  Debug builds
  // treat leftovers as fatal; release builds drop the donated references so
  // an abandoned task still returns to the pool.
  bool undrained = false;
  for (auto& slot : slots_) {
    for (unsigned p = 0; p < kPartitions; ++p) {
      Task* leftover = slot->inbox[p].exchange(nullptr, std::memory_order_acquire);
      while (leftover != nullptr) {
        undrained = true;
        Task* next = leftover->next_ready;
        leftover->next_ready = nullptr;
        leftover->release();
        leftover = next;
      }
      while (Task* t = slot->deque[p].steal()) {
        undrained = true;
        t->release();
      }
    }
  }
  for (Task* t : inline_queue_) {
    undrained = true;
    t->release();
  }
  inline_queue_.clear();
  assert(!undrained && "scheduler destroyed with undrained tasks");
  (void)undrained;
}

void Scheduler::assert_enqueue_ok(const Task& task) {
  assert(task.gate.load(std::memory_order_acquire) == 0 &&
         "only gate==0 tasks may be enqueued");
#ifndef NDEBUG
  auto& counter = const_cast<Task&>(task).debug_enqueues;
  if (counter.fetch_add(1, std::memory_order_acq_rel) != 0) {
    std::fprintf(stderr, "FATAL: double enqueue of task %llu (group %u)\n",
                 static_cast<unsigned long long>(task.id), task.group);
    std::abort();
  }
#else
  (void)task;
#endif
}

unsigned Scheduler::pick_target(Partition part) noexcept {
  // Chunked round-robin: rotate the target every kRouteChunk tasks instead
  // of every task.  Consecutive spawns coalesce in one inbox (one wake and
  // one hot cache line per chunk instead of per task); stealing rebalances
  // whatever the chunking skews.
  if (part == kAnyWorker) {
    return static_cast<unsigned>(
        (next_any_.fetch_add(1, std::memory_order_relaxed) / kRouteChunk) %
        worker_count());
  }
  return static_cast<unsigned>(
      (next_reliable_.fetch_add(1, std::memory_order_relaxed) / kRouteChunk) %
      reliable_count_);
}

unsigned Scheduler::wake_workers(unsigned preferred, Partition part,
                                 unsigned count) {
  unsigned woken = 0;
  if (preferred != kNoPreference && parkers_[preferred].unpark()) ++woken;
  if (woken >= count || !steal_enabled_) return woken;
  // The task is stealable: hand the remaining wakes to parked workers
  // entitled to the partition.
  const unsigned n = worker_count();
  for (unsigned i = 0; i < n && woken < count; ++i) {
    if (i == preferred) continue;
    if (part == kReliableOnly && is_unreliable(i)) continue;
    if (parkers_[i].parked() && parkers_[i].unpark()) ++woken;
  }
  return woken;
}

void Scheduler::enqueue_owned(Task* task, bool post_body) {
  assert_enqueue_ok(*task);

  if (inline_mode()) {
    inline_queue_.push_back(task);
    if (!inline_draining_) drain_inline();
    return;
  }

  const Partition part = partition_of(*task);

  // Owner fast path: dependents released by a worker stay on its own
  // deque — a pure owner push, no shared CAS.  An unreliable worker may
  // not host kReliableOnly work; it falls through to remote dispatch onto
  // a reliable worker's inbox.  A detached thread (slot handed to a spare)
  // lost its deque — it dispatches remotely like any non-worker.
  if (tls_scheduler == this && tls_owns_slot &&
      (part == kAnyWorker || !is_unreliable(tls_worker))) {
    WorkerSlot& me = *slots_[tls_worker];
    me.deque[part].push(task);
    // Post-body release (enqueue_released): the worker returns straight
    // to its pop loop, so when the pushed task is the only thing in its
    // deques it is consumed by the worker's own next pop and waking a
    // thief for it is a guaranteed-futile context switch (the dominant
    // cost of dependent chains on oversubscribed machines).  Any other
    // own work — in either partition's deque — voids that premise (the
    // next pop may pick it instead), so it is advertised.  Mid-body
    // pushes (post_body == false) always advertise — the body may run
    // long, or even wait on the pushed task, and the wake is what lets a
    // thief pick it up.
    const bool sole_own_work =
        me.deque[part].size() == 1 && me.deque[1 - part].empty();
    if (steal_enabled_ && (!post_body || !sole_own_work)) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      wake_workers(kNoPreference, part, 1);
    }
    return;
  }

  dispatch_remote(task, part);
}

void Scheduler::dispatch_remote(Task* task, Partition part) {
  const unsigned target = pick_target(part);

  std::atomic<Task*>& inbox = slots_[target]->inbox[part];
  Task* head = inbox.load(std::memory_order_relaxed);
  do {
    task->next_ready = head;
  } while (!inbox.compare_exchange_weak(head, task, std::memory_order_release,
                                        std::memory_order_relaxed));

  // First push into an empty inbox wakes the target (or a thief); pushes
  // onto a non-empty inbox ride on the wake already owed for the head —
  // any worker that consumes that inbox takes the whole chain, and every
  // worker re-checks all inboxes before parking.
  if (head == nullptr) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    wake_workers(target, part, 1);
  }
}

void Scheduler::enqueue_bulk(std::vector<TaskRef>& tasks) {
  // Transfer each reference out of the vector into the raw batch; the
  // scratch is thread-local so repeated windows allocate nothing.
  thread_local std::vector<Task*> scratch;
  scratch.clear();
  scratch.reserve(tasks.size());
  for (TaskRef& t : tasks) scratch.push_back(t.detach());
  enqueue_bulk(scratch.data(), scratch.size());
  scratch.clear();
}

void Scheduler::enqueue_bulk(Task* const* tasks, std::size_t count) {
  if (count == 0) return;
  if (count == 1) {
    enqueue_owned(tasks[0]);
    return;
  }

  if (inline_mode()) {
    for (std::size_t i = 0; i < count; ++i) {
      assert_enqueue_ok(*tasks[i]);
      inline_queue_.push_back(tasks[i]);
    }
    if (!inline_draining_) drain_inline();
    return;
  }

  // Owner fast path: a worker releasing a batch keeps it on its own deque
  // (pure owner pushes), spilling only partition-forbidden tasks to remote
  // inboxes, then hands out wakes so thieves can share the batch.  The
  // batch is pushed in reverse so the owner's LIFO pop returns it in issue
  // order — the same per-worker FIFO the inbox drain establishes.
  if (tls_scheduler == this && tls_owns_slot) {
    const bool reliable_owner = !is_unreliable(tls_worker);
    WorkerSlot& me = *slots_[tls_worker];
    unsigned own = 0;
    bool own_any_part = false;
    for (std::size_t i = count; i-- > 0;) {
      Task* task = tasks[i];
      assert_enqueue_ok(*task);
      const Partition part = partition_of(*task);
      if (part == kAnyWorker || reliable_owner) {
        me.deque[part].push(task);
        ++own;
        own_any_part |= (part == kAnyWorker);
      } else {
        dispatch_remote(task, part);
      }
    }
    if (own > 0 && steal_enabled_) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      wake_workers(kNoPreference,
                   own_any_part ? kAnyWorker : kReliableOnly,
                   std::min(own, worker_count()));
    }
    return;
  }

  // Build one chain per (target worker, partition) bucket, then publish
  // each bucket with a single CAS splice and issue a single fence for the
  // whole window.  Chains are built newest-first (prepend in spawn order),
  // matching the single-task inbox discipline, so FIFO pop order per
  // worker is preserved.  Bucket scratch stays on the stack for typical
  // worker counts — this is the GTB flush hot path, one call per window.
  const unsigned n = worker_count();
  const std::size_t buckets = static_cast<std::size_t>(n) * kPartitions;
  constexpr unsigned kStackWorkers = 64;
  Task* stack_chains[kStackWorkers * kPartitions * 2];
  bool stack_was_empty[kStackWorkers];
  std::unique_ptr<Task*[]> heap_chains;
  std::unique_ptr<bool[]> heap_was_empty;
  Task** heads;
  bool* was_empty;
  if (n <= kStackWorkers) {
    heads = stack_chains;
    was_empty = stack_was_empty;
  } else {
    heap_chains.reset(new Task*[buckets * 2]);
    heap_was_empty.reset(new bool[n]);
    heads = heap_chains.get();
    was_empty = heap_was_empty.get();
  }
  Task** tails = heads + buckets;
  std::fill_n(heads, buckets * 2, nullptr);
  std::fill_n(was_empty, n, false);
  bool has_any_part = false;

  for (std::size_t i = 0; i < count; ++i) {
    Task* raw = tasks[i];
    assert_enqueue_ok(*raw);
    const Partition part = partition_of(*raw);
    const unsigned target = pick_target(part);
    const std::size_t b = static_cast<std::size_t>(target) * kPartitions + part;
    raw->next_ready = heads[b];
    heads[b] = raw;
    if (tails[b] == nullptr) tails[b] = raw;
    has_any_part |= (part == kAnyWorker);
  }

  for (unsigned target = 0; target < n; ++target) {
    for (unsigned p = 0; p < kPartitions; ++p) {
      const std::size_t b = static_cast<std::size_t>(target) * kPartitions + p;
      if (heads[b] == nullptr) continue;
      std::atomic<Task*>& inbox = slots_[target]->inbox[p];
      Task* old_head = inbox.load(std::memory_order_relaxed);
      do {
        tails[b]->next_ready = old_head;
      } while (!inbox.compare_exchange_weak(old_head, heads[b],
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
      if (old_head == nullptr) was_empty[target] = true;
    }
  }

  std::atomic_thread_fence(std::memory_order_seq_cst);

  // Wake the routed-to workers first, then spread leftover wakes over
  // parked thieves, bounded by the window size.
  unsigned budget =
      static_cast<unsigned>(std::min<std::size_t>(count, n));
  for (unsigned target = 0; target < n && budget > 0; ++target) {
    if (was_empty[target] && parkers_[target].unpark()) --budget;
  }
  if (steal_enabled_ && budget > 0) {
    wake_workers(kNoPreference, has_any_part ? kAnyWorker : kReliableOnly,
                 budget);
  }
}

bool Scheduler::on_worker_thread() const noexcept {
  return tls_scheduler == this;
}

bool Scheduler::help_one() {
  if (inline_mode()) {
    // Inline help: run the NEWEST queued task — the waiting body's own
    // children sit at the back, so LIFO help descends depth-first and the
    // C++ stack grows with the task-tree depth, exactly like the threaded
    // owner-deque pop.  (FIFO help would chew through every pending
    // sibling breadth-first, nesting one stack frame per task in the
    // system — a guaranteed overflow on recursive fan-out.)  Safe to
    // interleave with an active drain_inline loop: same thread, and the
    // loop re-checks emptiness every iteration.
    if (inline_queue_.empty()) return false;
    Task* task = inline_queue_.back();
    inline_queue_.pop_back();
    inline_busy_cycles_ += run_body_timed(*task, 0);
    ++inline_executed_;
    task->release();
    return true;
  }
  // Detached threads must not touch the deques: the slot's new owner is
  // the single Chase-Lev owner now.
  if (tls_scheduler != this || !tls_owns_slot) return false;
  Task* raw = acquire_work(tls_worker);
  if (raw == nullptr) return false;
  run_task(raw, tls_worker);
  return true;
}

void Scheduler::drain_inline() {
  inline_draining_ = true;
  while (!inline_queue_.empty()) {
    Task* task = inline_queue_.front();
    inline_queue_.pop_front();
    inline_busy_cycles_ += run_body_timed(*task, 0);
    ++inline_executed_;
    task->release();  // drop the donated in-flight reference
  }
  inline_draining_ = false;
}

std::uint64_t Scheduler::splice_inbox(unsigned index, unsigned from,
                                      Partition part) {
  Task* list =
      slots_[from]->inbox[part].exchange(nullptr, std::memory_order_acquire);
  if (list == nullptr) return 0;
  // The chain is newest-first; pushing in chain order makes the caller's
  // bottom pop return the oldest first — FIFO issue order per worker (§3).
  WorkerSlot& me = *slots_[index];
  std::uint64_t moved = 0;
  while (list != nullptr) {
    Task* t = list;
    list = list->next_ready;
    t->next_ready = nullptr;
    me.deque[part].push(t);
    ++moved;
  }
  if (moved > 1 && steal_enabled_) {
    // Everything but the task the caller pops next is stealable now: wake
    // a thief, or a long first task strands the rest behind it.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    wake_workers(kNoPreference, part, 1);
  }
  return moved;
}

Task* Scheduler::acquire_work(unsigned index) {
  WorkerSlot& slot = *slots_[index];
  const bool reliable = !is_unreliable(index);

  // 1. Own deques.  The reliable-only partition goes first: no other class
  //    of worker can help with it.
  if (reliable) {
    if (Task* t = slot.deque[kReliableOnly].pop()) return t;
  }
  if (Task* t = slot.deque[kAnyWorker].pop()) return t;

  // 2. Splice own inboxes into the deques, then retry.
  bool drained = false;
  if (reliable) drained |= splice_inbox(index, index, kReliableOnly) > 0;
  drained |= splice_inbox(index, index, kAnyWorker) > 0;
  if (drained) {
    if (reliable) {
      if (Task* t = slot.deque[kReliableOnly].pop()) return t;
    }
    if (Task* t = slot.deque[kAnyWorker].pop()) return t;
  }

  // 3. Steal.
  if (steal_enabled_) return try_steal(index);
  return nullptr;
}

Task* Scheduler::try_steal(unsigned thief) {
  const unsigned n = worker_count();
  if (n <= 1) return nullptr;
  WorkerSlot& me = *slots_[thief];
  const bool reliable = !is_unreliable(thief);

  const auto probe = [&](unsigned v) -> Task* {
    WorkerSlot& victim = *slots_[v];
    if (reliable) {
      if (Task* t = victim.deque[kReliableOnly].steal()) {
        me.steals.fetch_add(1, std::memory_order_relaxed);
        return t;
      }
    }
    if (Task* t = victim.deque[kAnyWorker].steal()) {
      me.steals.fetch_add(1, std::memory_order_relaxed);
      return t;
    }
    // Deques dry: raid undrained injections so work routed to a busy
    // worker is never stranded behind its long-running task.
    const auto raid = [&](Partition part) -> Task* {
      const std::uint64_t moved = splice_inbox(thief, v, part);
      if (moved == 0) return nullptr;
      me.steals.fetch_add(moved, std::memory_order_relaxed);
      return me.deque[part].pop();
    };
    if (reliable) {
      if (Task* t = raid(kReliableOnly)) return t;
    }
    return raid(kAnyWorker);
  };

  // Convoy-free: every other worker once, in ring order from the thief,
  // starting at a random offset — without the rotation every thief would
  // probe the same victim first.  The sweep stays exhaustive (required for
  // the parking protocol).
  const unsigned others = n - 1;
  unsigned k = static_cast<unsigned>(me.rng.bounded(others));
  for (unsigned i = 0; i < others; ++i, ++k) {
    if (k == others) k = 0;
    unsigned v = thief + 1 + k;
    if (v >= n) v -= n;
    if (Task* t = probe(v)) return t;
  }
  return nullptr;
}

bool Scheduler::has_visible_work(unsigned index) const {
  const bool reliable = !is_unreliable(index);
  const WorkerSlot& me = *slots_[index];
  if (reliable && (me.inbox[kReliableOnly].load(std::memory_order_acquire) !=
                       nullptr ||
                   !me.deque[kReliableOnly].empty())) {
    return true;
  }
  if (me.inbox[kAnyWorker].load(std::memory_order_acquire) != nullptr ||
      !me.deque[kAnyWorker].empty()) {
    return true;
  }
  if (!steal_enabled_) return false;
  const unsigned n = worker_count();
  for (unsigned v = 0; v < n; ++v) {
    if (v == index) continue;
    const WorkerSlot& o = *slots_[v];
    if (reliable &&
        (o.inbox[kReliableOnly].load(std::memory_order_acquire) != nullptr ||
         !o.deque[kReliableOnly].empty())) {
      return true;
    }
    if (o.inbox[kAnyWorker].load(std::memory_order_acquire) != nullptr ||
        !o.deque[kAnyWorker].empty()) {
      return true;
    }
  }
  return false;
}

std::uint64_t Scheduler::run_body_timed(Task& task, unsigned worker) {
  // Dequeue-time policy hook (LQH classification) runs on the executing
  // worker, before the body, outside the busy-time attribution.
  if (on_dequeue_ != nullptr) on_dequeue_(ctx_, task, worker);
  const std::uint64_t saved_inner = tls_inner_cycles;
  tls_inner_cycles = 0;
  const std::uint64_t c0 = support::CycleClock::now();
  execute_(ctx_, task, worker);
  const std::uint64_t inclusive = support::CycleClock::elapsed(c0);
  const std::uint64_t exclusive =
      inclusive - std::min(inclusive, tls_inner_cycles);
  // Charge this frame's full span to the enclosing frame (if any); at the
  // top level the accumulated value is never read — the next frame's
  // save/zero discards it.
  tls_inner_cycles = saved_inner + inclusive;
  return exclusive;
}

void Scheduler::run_task(Task* raw, unsigned index) {
  const std::uint64_t cycles = run_body_timed(*raw, index);
  if (tls_scheduler == this && tls_owns_slot && tls_worker == index) {
    // Single-writer counters: the owning worker is the only mutator, so a
    // plain load+store (no lock-prefixed RMW) is enough; readers (stats)
    // are documented as approximate while workers run.
    WorkerSlot& slot = *slots_[index];
    slot.busy_cycles.store(
        slot.busy_cycles.load(std::memory_order_relaxed) + cycles,
        std::memory_order_relaxed);
    slot.executed.store(slot.executed.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  } else {
    // The body detached mid-task (blocking handoff): slot `index` has a
    // new owner writing those counters, so detached completions accumulate
    // in shared atomics instead.
    detached_busy_cycles_.fetch_add(cycles, std::memory_order_relaxed);
    detached_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Drop the in-flight reference the enqueuer donated; typically the last
  // one, returning the slot to the pool via the remote-free chain.
  raw->release();
}

void Scheduler::worker_loop(unsigned index) {
  tls_worker = index;
  tls_owns_slot = true;
  WorkerSlot& slot = *slots_[index];
  while (true) {
    // A task body may have detached this thread (blocking handoff): the
    // slot belongs to a spare now — unwind to the pool.
    if (!tls_owns_slot) return;
    slot.state.store(WorkerState::Scanning, std::memory_order_relaxed);
    if (Task* raw = acquire_work(index)) {
      slot.state.store(WorkerState::Running, std::memory_order_relaxed);
      run_task(raw, index);
      continue;
    }

    // Spin-before-park: yield a few times re-checking for work before
    // paying for a futex round trip.  During an active spawn stream the
    // producer keeps publishing, the re-check hits, and neither side
    // touches a kernel wait queue (the producer skips notify entirely for
    // non-WAITING workers).  Bounded, so idle workers still park quickly.
    bool found = false;
    for (int spin = 0; spin < kParkSpins; ++spin) {
      std::this_thread::yield();
      if (stopping_.load(std::memory_order_acquire)) break;  // go park/exit
      if (has_visible_work(index)) {
        found = true;
        break;
      }
    }
    if (found) continue;

    // Two-phase park (see parker.hpp): announce, re-check everything
    // we could possibly take — including the stop flag — then commit.
    Parker& parker = parkers_[index];
    parker.prepare_park();
    if (stopping_.load(std::memory_order_acquire)) {
      parker.cancel_park();
      if (!has_visible_work(index)) return;  // drained: exit
      continue;                              // keep draining
    }
    if (has_visible_work(index)) {
      parker.cancel_park();
      continue;
    }
    slot.state.store(WorkerState::Sleeping, std::memory_order_relaxed);
    parker.park();
  }
}

void Scheduler::thread_main(int slot) {
  tls_scheduler = this;
  for (;;) {
    if (slot >= 0) {
      worker_loop(static_cast<unsigned>(slot));
      tls_owns_slot = false;
    }
    // Spare pool: park until a worker detaching to block frees its slot,
    // or until the scheduler stops.
    support::MutexLock lk(pool_mutex_);
    while (free_slots_.empty()) {
      if (stopping_.load(std::memory_order_acquire)) {
        --live_threads_;
        return;
      }
      ++idle_spares_;
      pool_cv_.wait(lk.native());
      --idle_spares_;
    }
    slot = static_cast<int>(free_slots_.back());
    free_slots_.pop_back();
  }
}

void Scheduler::spawn_pool_thread_locked(int slot) {
  ++live_threads_;
  if (slot < 0) ++spares_spawned_;
  pool_threads_.emplace_back([this, slot] { thread_main(slot); });
}

bool Scheduler::detach_for_blocking() {
  if (inline_mode() || tls_scheduler != this || !tls_owns_slot) return false;
  {
    support::MutexLock lk(pool_mutex_);
    if (stopping_.load(std::memory_order_acquire)) return false;
    // A parked spare takes the slot unless each one is already woken for
    // a slot freed earlier: spares wait untimed, so a slot nobody was
    // woken for would wait until some thread re-pools.
    const bool idle_available = idle_spares_ > free_slots_.size();
    if (!idle_available && live_threads_ >= worker_total_ + kMaxSpares) {
      return false;  // budget exhausted: caller must keep helping
    }
    free_slots_.push_back(tls_worker);
    ++handoffs_;
    if (idle_available) {
      pool_cv_.notify_one();
    } else {
      spawn_pool_thread_locked(-1);
    }
  }
  // The mutex above orders our last owner-side deque operations before the
  // adopting thread's first — the Chase-Lev single-owner handoff edge.
  tls_owns_slot = false;
  return true;
}

unsigned Scheduler::current_slot() const noexcept {
  return tls_scheduler == this && tls_owns_slot ? tls_worker : kNoSlot;
}

std::size_t Scheduler::own_queue_depth() const noexcept {
  if (tls_scheduler != this || !tls_owns_slot) return 0;
  const WorkerSlot& me = *slots_[tls_worker];
  const std::int64_t a = me.deque[kReliableOnly].size();
  const std::int64_t b = me.deque[kAnyWorker].size();
  return static_cast<std::size_t>(a > 0 ? a : 0) +
         static_cast<std::size_t>(b > 0 ? b : 0);
}

void Scheduler::run_now(Task* task) {
  assert(tls_scheduler == this && tls_owns_slot &&
         "run_now requires a slot-owning worker");
  assert_enqueue_ok(*task);
  run_task(task, tls_worker);
}

bool Scheduler::park_worker_for_barrier(std::atomic<Parker*>& announce,
                                        bool (*open)(void*), void* ctx,
                                        std::chrono::microseconds timeout) {
  if (tls_scheduler != this || !tls_owns_slot) return false;
  const unsigned i = tls_worker;
  WorkerSlot& slot = *slots_[i];
  Parker& parker = parkers_[i];
  // Two-phase park, with the BARRIER condition folded into the re-check:
  // the completion side (last-child decrement / group quiescence) issues
  // its fence before loading the waiter it notifies, so either our
  // re-check sees the barrier open or the completer sees the slot Parker
  // (published here, before our fence) parked and delivers the wake.
  // Producers publishing new work wake this slot the same way they wake an
  // idle worker — a parked helper stays live for both events.
  announce.store(&parker, std::memory_order_release);
  parker.prepare_park();
  if (stopping_.load(std::memory_order_acquire) || open(ctx) ||
      has_visible_work(i)) {
    parker.cancel_park();
    return false;
  }
  slot.state.store(WorkerState::Sleeping, std::memory_order_relaxed);
  if (timeout.count() > 0) {
    (void)parker.park_for(timeout);
  } else {
    parker.park();
  }
  slot.state.store(WorkerState::Scanning, std::memory_order_relaxed);
  return true;
}

PoolStats Scheduler::pool_stats() const {
  PoolStats p;
  {
    support::MutexLock lk(pool_mutex_);
    p.handoffs = handoffs_;
    p.spares_spawned = spares_spawned_;
    p.live_threads = live_threads_;
    p.idle_spares = idle_spares_;
  }
  return p;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  std::uint64_t cycles = inline_busy_cycles_;
  for (const auto& slot : slots_) {
    s.executed += slot->executed.load(std::memory_order_relaxed);
    s.steals += slot->steals.load(std::memory_order_relaxed);
    cycles += slot->busy_cycles.load(std::memory_order_relaxed);
  }
  s.executed += inline_executed_;
  s.executed += detached_executed_.load(std::memory_order_relaxed);
  cycles += detached_busy_cycles_.load(std::memory_order_relaxed);
  s.busy_ns = support::CycleClock::to_ns(cycles);
  return s;
}

std::int64_t Scheduler::busy_ns() const { return stats().busy_ns; }

std::pair<std::int64_t, std::int64_t> Scheduler::busy_ns_split() const {
  // Detached (slotless) execution only ever runs on threads that held a
  // reliable slot, so its cycles land in the reliable bucket.
  std::uint64_t reliable =
      inline_busy_cycles_ +
      detached_busy_cycles_.load(std::memory_order_relaxed);
  std::uint64_t unreliable = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    (is_unreliable(static_cast<unsigned>(i)) ? unreliable : reliable) +=
        slots_[i]->busy_cycles.load(std::memory_order_relaxed);
  }
  return {support::CycleClock::to_ns(reliable),
          support::CycleClock::to_ns(unreliable)};
}

void Scheduler::dump(FILE* out) const {
  std::fprintf(out, "scheduler: workers=%zu reliable=%u steal=%d stopping=%d\n",
               slots_.size(), reliable_count_, steal_enabled_ ? 1 : 0,
               stopping_.load() ? 1 : 0);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const auto& slot = *slots_[i];
    const char* state = "?";
    switch (slot.state.load(std::memory_order_relaxed)) {
      case WorkerState::Scanning: state = "scanning"; break;
      case WorkerState::Running: state = "running"; break;
      case WorkerState::Sleeping: state = "sleeping"; break;
    }
    std::fprintf(
        out,
        "  worker %zu: state=%s unreliable=%d deque[rel]=%lld deque[any]=%lld "
        "inbox[rel]=%d inbox[any]=%d executed=%llu steals=%llu\n",
        i, state, is_unreliable(static_cast<unsigned>(i)) ? 1 : 0,
        static_cast<long long>(slot.deque[kReliableOnly].size()),
        static_cast<long long>(slot.deque[kAnyWorker].size()),
        slot.inbox[kReliableOnly].load(std::memory_order_acquire) != nullptr,
        slot.inbox[kAnyWorker].load(std::memory_order_acquire) != nullptr,
        static_cast<unsigned long long>(
            slot.executed.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            slot.steals.load(std::memory_order_relaxed)));
  }
}

}  // namespace sigrt
