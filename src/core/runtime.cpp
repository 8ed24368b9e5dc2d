#include "core/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/parker.hpp"
#include "fault/fault.hpp"
#include "support/timer.hpp"

namespace sigrt {

namespace {

// Current-task frame: which task is executing on the calling thread, and on
// behalf of which runtime.  spawn_impl reads it to wire parent/child edges
// (nested spawn) and the wait_* entry points read it to choose the helping
// path.  Saved/restored around every body, so it stays correct under
// helping re-entrancy and across nested runtimes sharing one thread.
// `prev` chains to the frame this one displaced (the saved copy lives on
// execute_task's stack, so it outlives the body): the chain enumerates
// every task suspended beneath the current one on this thread, which is
// exactly the set a helping barrier can never complete — wait_group walks
// it to fail fast on self-deadlocking group waits.
struct ThreadTaskFrame {
  Runtime* runtime = nullptr;
  Task* task = nullptr;
  const ThreadTaskFrame* prev = nullptr;
};
thread_local ThreadTaskFrame tls_task_frame;

// Nested helping-barrier frames live on this thread's stack right now.
// Each helping iteration can execute an arbitrary task body, which may
// itself barrier — so C++ stack depth grows with this counter, and the
// elastic pool's helping-depth cap bounds it by switching too-deep waiters
// from helping to a slot handoff + real block.
thread_local unsigned tls_help_depth = 0;

// Work-first throttle recursion bound: run_now re-enters spawn_impl through
// the inlined body, and an adversarial spawn chain (each inlined task
// spawning over a still-full queue) would otherwise recurse without limit.
thread_local unsigned tls_inline_spawn_depth = 0;
constexpr unsigned kMaxInlineSpawnDepth = 64;

// Completion scratch, leased per execute_task completion section instead of
// being a bare thread_local vector: an in-task taskwait re-enters
// execute_task (helping), so per-thread scratch must be a stack of frames,
// not a single slot.  Frames are pooled per thread and keep their capacity,
// preserving the zero-allocation steady state; the pool only grows if
// completion sections ever truly overlap on one thread.
struct CompletionScratch {
  std::vector<dep::Node*> dependents;
  std::vector<Task*> ready;
  CompletionScratch* next = nullptr;
};

struct ScratchPool {
  CompletionScratch* head = nullptr;
  ~ScratchPool() {
    while (head != nullptr) {
      CompletionScratch* next = head->next;
      delete head;
      head = next;
    }
  }
};
thread_local ScratchPool tls_scratch_pool;

CompletionScratch* acquire_scratch() {
  if (CompletionScratch* s = tls_scratch_pool.head) {
    tls_scratch_pool.head = s->next;
    s->next = nullptr;
    return s;
  }
  return new CompletionScratch;
}

void release_scratch(CompletionScratch* s) noexcept {
  s->dependents.clear();
  s->ready.clear();
  s->next = tls_scratch_pool.head;
  tls_scratch_pool.head = s;
}

}  // namespace

TaskId current_task_id() noexcept {
  return tls_task_frame.task != nullptr ? tls_task_frame.task->id : 0;
}

Runtime::Runtime(RuntimeConfig config)
    : config_(config),
      group_table_(new std::atomic<TaskGroup*>[kGroupFastTableSize]),
      start_ns_(support::now_ns()) {
  for (std::size_t i = 0; i < kGroupFastTableSize; ++i) {
    group_table_[i].store(nullptr, std::memory_order_relaxed);
  }
  groups_.push_back(std::make_unique<TaskGroup>(kDefaultGroup, "default", 1.0,
                                                config_.record_task_log));
  publish_group(kDefaultGroup, groups_.back().get());

  switch (config_.policy) {
    case PolicyKind::GTB: gtb_.emplace(*this, config_.gtb_buffer); break;
    case PolicyKind::GTBMaxBuffer: gtb_.emplace(*this, SIZE_MAX); break;
    case PolicyKind::LQH: lqh_.emplace(config_.lqh_levels, config_.workers); break;
    case PolicyKind::Agnostic: break;
  }

  // The scheduler's dequeue hook is LQH's worker-side decision point
  // (§3.4): classification happens on the executing worker, against
  // worker-local history, with no locks on the path.  The hooks are plain
  // function pointers over `this` — captureless trampolines, no
  // std::function type erasure anywhere on the execute path.
  scheduler_ = std::make_unique<Scheduler>(
      config_.workers, config_.unreliable_workers, config_.steal, this,
      [](void* self, Task& task, unsigned worker) {
        static_cast<Runtime*>(self)->execute_task(task, worker);
      },
      [](void* self, Task& task, unsigned worker) {
        static_cast<Runtime*>(self)->classify_at_dequeue(task, worker);
      });

  meter_ = energy::make_best_meter(this);
}

void Runtime::publish_group(GroupId id, TaskGroup* group) noexcept {
  if (id < kGroupFastTableSize) {
    group_table_[id].store(group, std::memory_order_release);
  }
}

Runtime::~Runtime() {
  try {
    wait_all();
  } catch (...) {
    // Destructors must not throw; callers who care about task failures call
    // wait_all() themselves.
  }
  scheduler_.reset();  // joins workers before members are torn down
}

GroupId Runtime::create_group(const std::string& name, double ratio) {
  support::WriterLock lock(groups_mutex_);
  if (auto it = group_names_.find(name); it != group_names_.end()) {
    groups_[it->second]->set_ratio(ratio);
    return it->second;
  }
  const auto id = static_cast<GroupId>(groups_.size());
  groups_.push_back(std::make_unique<TaskGroup>(id, name, ratio,
                                                config_.record_task_log));
  group_names_.emplace(name, id);
  publish_group(id, groups_.back().get());
  return id;
}

GroupId Runtime::ensure_group(const std::string& name) {
  support::WriterLock lock(groups_mutex_);
  if (auto it = group_names_.find(name); it != group_names_.end()) {
    return it->second;
  }
  const auto id = static_cast<GroupId>(groups_.size());
  groups_.push_back(
      std::make_unique<TaskGroup>(id, name, 1.0, config_.record_task_log));
  group_names_.emplace(name, id);
  publish_group(id, groups_.back().get());
  return id;
}

void Runtime::set_ratio(GroupId group, double ratio) {
  group_ref(group).set_ratio(ratio);
}

TaskGroup& Runtime::group(GroupId id) { return group_ref(id); }

TaskGroup& Runtime::group_ref(GroupId id) {
  TaskGroup* g = find_group(id);
  if (g == nullptr) throw std::out_of_range("unknown task group");
  return *g;
}

TaskGroup* Runtime::find_group(GroupId id) {
  // Lock-free fast path: workers hit this on every LQH dequeue decision.
  // Group objects are heap-stable (unique_ptr) and published with release
  // after construction, so the acquire load is sufficient.
  if (id < kGroupFastTableSize) {
    if (TaskGroup* g = group_table_[id].load(std::memory_order_acquire)) {
      return g;
    }
  }
  support::ReaderLock lock(groups_mutex_);
  return id < groups_.size() ? groups_[id].get() : nullptr;
}

GroupReport Runtime::group_report(GroupId id) const {
  support::ReaderLock lock(groups_mutex_);
  if (id >= groups_.size()) throw std::out_of_range("unknown task group");
  return groups_[id]->report();
}

std::vector<GroupReport> Runtime::all_group_reports() const {
  support::ReaderLock lock(groups_mutex_);
  std::vector<GroupReport> out;
  out.reserve(groups_.size());
  for (const auto& g : groups_) out.push_back(g->report());
  return out;
}

void Runtime::spawn(TaskOptions options) {
  spawn_impl(std::move(options), /*internal=*/false);
}

void Runtime::spawn_impl(TaskOptions&& options, bool internal) {
  // Reject bad input before anything is counted or pinned: a throw after
  // the parent's children increment would leave its taskwait open for
  // good.  A NaN significance would pass the clamp below unchanged and
  // break GTB's sort, LQH's level rounding and the report's selection.
  if (!options.accurate) {
    throw std::invalid_argument("task requires an accurate body");
  }
  if (std::isnan(options.significance)) {
    throw std::invalid_argument("task significance is NaN");
  }
  TaskGroup* const g = find_group(options.group);
  if (g == nullptr) throw std::invalid_argument("unknown task group");

  // Pooled allocation: a recycled slot from this thread's shard (or its
  // remote-free chain) in the steady state — no heap traffic.
  TaskRef task = make_task();
  task->accurate = std::move(options.accurate);
  task->approximate = std::move(options.approximate);
  task->check = std::move(options.check);
  task->max_redos = static_cast<std::uint8_t>(
      std::min<unsigned>(options.max_redos, 255u));
  // §6 check/redo: an accurate task whose validator + redo budget make a
  // corrupted result recoverable may execute on unreliable workers — the
  // partition rule (Scheduler::eligible_for_unreliable) reads this flag.
  task->unreliable_ok = task->check && task->max_redos > 0 &&
                        config_.unreliable_workers > 0;
  task->significance =
      static_cast<float>(std::clamp(options.significance, 0.0, 1.0));
  task->group = options.group;
  // The calling thread's worker slot also picks its group counter shard.
  static_assert(Scheduler::kNoSlot == TaskGroup::kNoWorkerSlot);
  const unsigned slot = scheduler_->current_slot();
  task->id = mint_task_id(slot != Scheduler::kNoSlot);
  task->internal = internal;
  if (!internal) g->on_spawn(slot);

  // Nested spawn: record the spawning task (if any) as parent so an
  // in-task taskwait can barrier on exactly its children.  The child pins
  // the parent with one retained reference until its completion performs
  // the counter decrement — the parent may finish its body (and drop the
  // scheduler's in-flight reference) before the child ever runs.  The live
  // parent covers the child in the barrier counts (Task::children): the
  // child adds to none of them, except to its own group's count when that
  // differs from the parent's.  A task without a parent counts directly.
  // Relaxed adds: they are ordered before the task's publication by the
  // scheduler's release edges, and the completion-side decrements are
  // acq_rel so barrier waiters observe a properly ordered zero crossing.
  if (Task* parent = tls_task_frame.runtime == this ? tls_task_frame.task
                                                    : nullptr) {
    parent->retain();
    const bool same_group = parent->group == task->group;
    parent->children.fetch_add(Task::child_units(same_group),
                               std::memory_order_relaxed);
    task->parent = parent;
    if (!same_group) g->add_pending(1);
  } else {
    g->add_pending(1);
    pending_.fetch_add(1, std::memory_order_relaxed);
  }

  task->has_footprint = !options.accesses.empty();

  // Spawn fast path: a dependency-free task with no GTB buffer to pass
  // (LQH/agnostic) is runnable the moment it exists — no policy hold, no
  // registration hold, no gate arithmetic at all (the gate stays 0 and the
  // classification happens at dequeue).  This skips three atomic RMWs per
  // task on the hottest spawn path; GTB and tasks with in()/out() clauses
  // take the general path below.
  if (!task->has_footprint && !gtb_ && !internal) {
    // Work-first spawn throttle: past the per-worker queue watermark, run
    // the task inline on the spawner instead of enqueueing (the OpenMP
    // task-creation cutoff).  Fan-out loops switch from breadth-first
    // queue growth to depth-first execution, bounding queue memory.  Only
    // on a slot-owning reliable worker (the task is still Undecided and
    // must not execute on an unreliable core), and only to a bounded
    // inline depth — each inlined body may spawn over a still-full queue.
    if (tls_inline_spawn_depth < kMaxInlineSpawnDepth &&
        slot != Scheduler::kNoSlot && !scheduler_->is_unreliable(slot) &&
        scheduler_->own_queue_depth() > kSpawnInlineWatermark) {
      ++tls_inline_spawn_depth;
      inline_spawns_.fetch_add(1, std::memory_order_relaxed);
      scheduler_->run_now(task.detach());  // donate the spawner's reference
      --tls_inline_spawn_depth;
      return;
    }
    scheduler_->enqueue(std::move(task));
    return;
  }

  // Gate arithmetic.  The final hold count is (holds + deps): hold B for
  // this registration (released at the bottom), hold A for GTB
  // classification (released by GtbPolicy through release_bulk) — only
  // taken when a GTB buffer exists, see below — plus one per
  // unfinished predecessor.  deps is only known *after* registration, and
  // predecessors may complete — and decrement the gate — as soon as their
  // edge is pushed, before the count is folded in below.  Seeding the gate
  // with a large spawn hold and then subtracting the surplus makes it
  // impossible for those early decrements to drive the gate to zero before
  // the dependency count is folded in (with a plain initial value of
  // `holds`, two predecessors finishing inside the window double-enqueue
  // the task).
  //
  // Without a GTB buffer (LQH/agnostic) there is no hold A: dependent
  // tasks skip the policy hop entirely — one fewer gate RMW — and are
  // classified at dequeue exactly as on the footprint-free fast path.
  // Internal fence tasks do the same (they bypass buffering by contract)
  // but are pinned Accurate here.
  const bool skip_policy = internal || !gtb_;
  const std::uint32_t holds = skip_policy ? 1u : 2u;
  constexpr std::uint32_t kSpawnHold = 1u << 20;
  task->gate.store(kSpawnHold, std::memory_order_relaxed);
  // Footprint-free tasks bypass the tracker entirely: they can neither
  // have predecessors nor ever be one, so both the registration here and
  // the completion skip the tracker.
  const std::size_t deps =
      task->has_footprint ? tracker_.register_node(task.get(), options.accesses)
                          : 0;
  assert(deps + holds < kSpawnHold && "dependency count exceeds the spawn hold");

  if (skip_policy) {
    if (internal) {
      // Internal fence tasks bypass the policy: they are always accurate
      // and must not be delayed by buffering.
      task->kind = ExecutionKind::Accurate;
    }
    // Fold the surplus subtraction and hold B's release into one RMW: the
    // gate reaches zero here exactly when every predecessor already
    // completed inside the registration window.
    const auto sub = kSpawnHold - static_cast<std::uint32_t>(deps);
    if (task->gate.fetch_sub(sub, std::memory_order_acq_rel) == sub) {
      scheduler_->enqueue(std::move(task));  // donate the spawner's reference
    }
    return;
  }

  // After this subtraction the gate reads (holds + deps - completed_preds)
  // >= holds, so the zero crossing can only happen via the releases below.
  task->gate.fetch_sub(kSpawnHold - holds - static_cast<std::uint32_t>(deps),
                       std::memory_order_acq_rel);
  gtb_->on_spawn(task);  // will release hold A

  if (task->release_one()) {  // hold B
    scheduler_->enqueue(std::move(task));  // donate the spawner's reference
  }
}

TaskId Runtime::mint_task_id(bool owns_slot) {
  // Multi-producer id mint: serve dispatchers, user threads and task bodies
  // all spawn concurrently, and ids must stay unique — they key the
  // deterministic fault-injection streams and task-log attribution.  A
  // slot-owning worker takes a block of ids per fetch_add, so nested spawns
  // stay off the counter's cache line; any other thread takes one id per
  // spawn, so a lone master mints 1, 2, 3, ... and fault streams replay.
  // The block lives with the thread, not the slot: a thread that minted
  // from the shared counter in between (detached for blocking) drops its
  // block, so each thread's ids increase, which GTB's re-issue sort relies
  // on.  A pool thread only ever owns slots of one runtime.  Relaxed:
  // uniqueness needs no ordering.
  thread_local TaskId block_next = 0;
  thread_local TaskId block_end = 0;
  if (owns_slot) {
    if (block_next == block_end) {
      block_next =
          next_task_id_.fetch_add(kTaskIdBlock, std::memory_order_relaxed);
      block_end = block_next + kTaskIdBlock;
    }
    return block_next++;
  }
  block_next = block_end;
  return next_task_id_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::release_bulk(const std::vector<TaskRef>& tasks) {
  // Spawn-batching fast path: a GTB window drops its holds here; every
  // task that becomes runnable is published to the scheduler as one bulk
  // enqueue instead of |window| individual ones.  The ready subset lives
  // in a thread-local scratch buffer, so a flush allocates nothing.
  thread_local std::vector<Task*> ready;
  ready.clear();
  if (ready.capacity() < tasks.size()) ready.reserve(tasks.size());
  for (const TaskRef& t : tasks) {
    if (t->release_one()) {
      t->retain();  // the scheduler's in-flight reference
      ready.push_back(t.get());
    }
  }
  scheduler_->enqueue_bulk(ready.data(), ready.size());
  ready.clear();
}

void Runtime::classify_at_dequeue(Task& task, unsigned worker) {
  // Invoked by the scheduler on every path that runs a task (pop, steal,
  // help, inline), right after the task is won.  GTB-classified and
  // internal tasks pass through untouched; LQH/agnostic tasks arrive
  // Undecided and are decided here, against state local to `worker`.
  if (task.kind != ExecutionKind::Undecided) return;
  // GTB classifies every task before releasing it; reaching here would
  // mean a task bypassed the buffer.
  assert(!gtb_ && "GTB task reached a worker unclassified");
  task.kind = lqh_ ? lqh_->decide(task, worker, group_ref(task.group).ratio())
                   : ExecutionKind::Accurate;
}

void Runtime::execute_task(Task& task, unsigned worker) {
  // The dequeue hook ran first: the task is classified.
  assert(task.kind != ExecutionKind::Undecided &&
         "task reached execution still Undecided");
  ExecutionKind kind = task.kind;
  if (kind == ExecutionKind::Approximate && !task.approximate) {
    kind = ExecutionKind::Dropped;  // no approxfun: drop the task (§2)
  }
  // §6 extension: approximate tasks on NTC workers may silently fail; the
  // runtime then treats them as dropped (dependents still release).  The
  // failure is the TaskCorrupt site, deterministic per (plan seed, task id).
  if (kind == ExecutionKind::Approximate && scheduler_->is_unreliable(worker) &&
      fault::armed() &&
      fault::should_fire(fault::Site::TaskCorrupt, task.id)) {
    kind = ExecutionKind::Dropped;
    faults_.fetch_add(1, std::memory_order_relaxed);
  }
  task.kind = kind;

  TaskGroup& g = group_ref(task.group);
  const double requested = g.ratio();

  // Deterministic injection (armed chaos runs only — one relaxed load when
  // disarmed, folds away entirely when compiled out).  Delay/stall sites
  // fire before the body; the crash site throws inside it; the corrupt
  // site marks the thread so fault-aware kernels write garbage.  Streams
  // key on (task id, attempt) so a redo draws a fresh coin.
  if (fault::armed() && !task.internal &&
      (kind == ExecutionKind::Accurate || kind == ExecutionKind::Approximate)) {
    if (fault::should_fire(fault::Site::TaskDelay, task.id, task.redos_done)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(fault::param_us(fault::Site::TaskDelay)));
    }
    if (fault::should_fire(fault::Site::WorkerStall, task.id,
                           task.redos_done)) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(fault::param_us(fault::Site::WorkerStall)));
    }
  }

  // Publish this task as the thread's current frame for the body's
  // duration: nested spawns parent to it, and an in-task taskwait detects
  // the helping path through it.  Save/restore (not set/clear) keeps the
  // outer frame correct when a helping barrier re-enters execute_task.
  const ThreadTaskFrame saved_frame = tls_task_frame;
  tls_task_frame = {this, &task, &saved_frame};
  std::exception_ptr body_error;
  bool injected_crash = false;
  bool check_rejected = false;
  try {
    switch (kind) {
      case ExecutionKind::Accurate: {
        if (fault::armed() && !task.internal &&
            fault::should_fire(fault::Site::TaskCrash, task.id,
                               task.redos_done)) {
          throw fault::InjectedFault("injected task-body crash");
        }
        if (fault::armed() && !task.internal && task.check &&
            scheduler_->is_unreliable(worker) &&
            fault::should_fire(fault::Site::TaskCorrupt, task.id,
                               task.redos_done)) {
          fault::ScopedCorrupt corrupt_scope;
          task.accurate();
        } else {
          task.accurate();
        }
        // The check/redo validator runs on the executing worker, right
        // after a successful body: false = the result is corrupted.
        if (task.check && !task.check()) check_rejected = true;
        break;
      }
      case ExecutionKind::Approximate:
        if (fault::armed() && !task.internal &&
            fault::should_fire(fault::Site::TaskCrash, task.id,
                               task.redos_done)) {
          throw fault::InjectedFault("injected task-body crash");
        }
        task.approximate();
        break;
      case ExecutionKind::Dropped:
      case ExecutionKind::Undecided:
        break;  // dropped: complete without running a body
    }
  } catch (const fault::InjectedFault&) {
    injected_crash = true;
    body_error = std::current_exception();
  } catch (...) {
    body_error = std::current_exception();
  }
  tls_task_frame = saved_frame;

  // Approximate tasks keep drop-on-fault semantics: an injected crash
  // accounts as a drop (dependents still release), never as a barrier
  // error — exactly like the §6 NTC silent-fault path above.
  if (injected_crash && kind == ExecutionKind::Approximate) {
    kind = ExecutionKind::Dropped;
    task.kind = kind;
    faults_.fetch_add(1, std::memory_order_relaxed);
    body_error = nullptr;
  }

  // Check/redo: a failed or check-rejected *accurate* task with budget left
  // is re-executed instead of failing the barrier.  Re-enqueueing the same
  // Task slot (no fresh allocation) and returning early keeps every
  // downstream effect — tracker completion, group accounting, parent
  // decrement, pending_ — held until the final verdict, so dependents and
  // barriers simply keep waiting.  Clearing unreliable_ok routes the retry
  // into the reliable-only partition.
  if ((body_error || check_rejected) && kind == ExecutionKind::Accurate &&
      !task.internal && task.redos_done < task.max_redos) {
    ++task.redos_done;
    task.unreliable_ok = false;
    g.on_redo(check_rejected);
#ifndef NDEBUG
    // The slot is being intentionally re-enqueued; reset the double-enqueue
    // detector armed by the first dispatch.
    task.debug_enqueues.store(0, std::memory_order_relaxed);
#endif
    task.retain();  // run_task releases the current in-flight reference
    scheduler_->enqueue_owned(&task);
    return;
  }

  if (!body_error && check_rejected) {
    // Budget exhausted with a still-rejected result: count the final
    // rejection (redone attempts were counted by on_redo) and surface it
    // like a thrown body so the barrier reports the corruption.
    g.on_corruption_detected();
    body_error = std::make_exception_ptr(std::runtime_error(
        "sigrt: task result rejected by check() after exhausting max_redos"));
  }
  if (body_error) {
    support::MutexLock lock(error_mutex_);
    if (!first_error_) first_error_ = body_error;
  }

  // Completion order matters: downstream tasks must only start after this
  // task's side effects are visible.  complete() takes no lock: a
  // registration that finds this task's dependents list closed reads the
  // mark with acquire from complete()'s exchange, and one that finds the
  // task already drained acquires the tracker's lock after the drain that
  // took it off the retired list; either way it sees those effects.
  // Dependents handed out here ride the scheduler's publication edges
  // instead.
  // Multiple dependents becoming runnable at once go out as one batch.
  // Scratch frames are leased from a per-thread pool (capacity-stable, so
  // steady-state completions touch no allocator) rather than being a flat
  // thread_local: execute_task is re-entrant under helping barriers, and a
  // frame per completion section stays correct at any nesting depth.
  if (task.has_footprint) {
    CompletionScratch* scratch = acquire_scratch();
    tracker_.complete(task, scratch->dependents);
    for (dep::Node* node : scratch->dependents) {
      // The tracker's dependents are always Tasks; each pointer carries one
      // adopted reference that either transfers to the scheduler or drops.
      Task* dep_task = static_cast<Task*>(node);
      if (dep_task->release_one()) {
        scratch->ready.push_back(dep_task);
      } else {
        dep_task->release();
      }
    }
    if (scratch->ready.size() == 1) {
      // Post-body release: this worker pops the lone dependent next, so
      // the scheduler may skip the thief wake (see enqueue_released).
      scheduler_->enqueue_released(scratch->ready.front());
    } else if (!scratch->ready.empty()) {
      scheduler_->enqueue_bulk(scratch->ready.data(), scratch->ready.size());
    }
    release_scratch(scratch);
  }

  if (!task.internal) g.on_complete(kind, task.significance, requested, worker);

  // Hand-off: this task covers its still-live children in the barrier
  // counts, and is about to stop.  Move them to the direct counts first —
  // add both fields, then set kHandedOff and subtract the children that
  // completed in between (they saw no kHandedOff, so they subtracted
  // nothing).  No child can be added meanwhile: the body has returned.
  // Every add thus comes before its matching subtract, and a count reads
  // zero only once every task it covers has completed.  The acquire load
  // also carries the effects of children that completed before it to this
  // task's own release below.
  if (const std::uint64_t held = task.children.load(std::memory_order_acquire);
      held != 0) {
    const std::uint64_t live = held & Task::kLiveMask;
    const std::uint64_t same = held >> Task::kSameGroupShift;
    pending_.fetch_add(live, std::memory_order_relaxed);
    if (same != 0) g.add_pending(same);
    // acq_rel: a child whose decrement reads kHandedOff subtracts its
    // units directly, after (happens-before) the adds above.
    const std::uint64_t left =
        task.children.fetch_or(Task::kHandedOff, std::memory_order_acq_rel);
    if (const std::uint64_t gone = live - (left & Task::kLiveMask); gone != 0) {
      sub_pending(gone);
    }
    if (const std::uint64_t gone = same - (left >> Task::kSameGroupShift);
        gone != 0) {
      g.sub_pending(gone);
    }
  }

  // Release this task's own units.  A child's decrement on the parent's
  // word is what an in-task taskwait in the parent is waiting for: acq_rel
  // pairs with the waiter's acquire load, ordering this task's side
  // effects (and its on_complete above) before the barrier opens.  Then
  // drop the child's pin on the parent.  The runtime unit goes last, so a
  // top-level wait_all that opens sees this task's group count settled.
  bool counted_directly = true;  // this task's unit is in pending_
  if (Task* parent = task.parent) {
    const bool same_group = parent->group == task.group;
    const std::uint64_t before = parent->children.fetch_sub(
        Task::child_units(same_group), std::memory_order_acq_rel);
    // Set: the parent completed first and handed this task's units to the
    // direct counts; it has no taskwait left to wake.
    counted_directly = (before & Task::kHandedOff) != 0;
    if (counted_directly) {
      if (same_group) g.sub_pending(1);
    } else if ((before & Task::kLiveMask) == 1) {
      // Last live child: wake a parked taskwait waiter.  The fence pairs
      // Dekker-style with the waiter's register-then-recheck (see
      // parker.hpp): either this load sees the registered handle, or the
      // waiter's post-registration recheck sees no live child.  The notify
      // must precede parent->release(): the waiter slot lives in the
      // parent, which this release may recycle.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (BarrierWaiter* w = parent->waiter.load(std::memory_order_acquire)) {
        w->notify();
      }
    }
    if (!same_group) g.sub_pending(1);
    parent->release();
  } else {
    g.sub_pending(1);
  }
  if (counted_directly) sub_pending(1);
}

void Runtime::sub_pending(std::uint64_t n) {
  if (pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    waiters_.notify_all();
  }
}

template <typename Done>
void Runtime::help_until(Done done, Task* wtask, WaiterList* wlist) {
  // Helping barrier: a worker inside a task body must never block its OS
  // thread on a barrier — every worker doing so (recursive fan-out does
  // exactly this) would deadlock the pool.  Instead the waiter keeps
  // executing tasks: its own deque first (where its children just landed),
  // then inbox/steals.  A thread that owns no worker slot (any caller
  // outside a task body) skips the helping and only flushes and parks.
  //
  // Each nested barrier frame deepens the C++ stack by whatever the helped
  // bodies use, so helping depth is capped (kHelpingDepth): a waiter past
  // the cap hands its worker slot to a spare thread (detach_for_blocking)
  // and blocks for real — parallelism survives on the spare, the stack
  // stops growing here.  When the spare budget is exhausted, liveness wins
  // over the stack bound and the waiter keeps helping.
  struct DepthFrame {
    unsigned& depth;
    explicit DepthFrame(unsigned& d) : depth(d) { ++depth; }
    ~DepthFrame() { --depth; }
  } depth_frame(tls_help_depth);

  // Inline mode has no other thread that could complete the awaited work:
  // helping and flushing are the only ways forward, so it never parks.
  const bool may_park = !scheduler_->inline_mode();
  // Blocked mode: this thread owns no worker slot (a plain thread, or a
  // worker an enclosing barrier already detached) — it must not execute
  // task bodies on this stack, only park on its Parker.
  bool blocked_mode =
      may_park && scheduler_->current_slot() == Scheduler::kNoSlot;

  BarrierWaiter* waiter = nullptr;  // registered lazily, on first park
  int idle = 0;
  while (!done()) {
    if (!blocked_mode && tls_help_depth > kHelpingDepth &&
        scheduler_->detach_for_blocking()) {
      blocked_mode = true;
    }
    if (!blocked_mode && scheduler_->help_one()) {
      idle = 0;
      continue;
    }
    if (++idle < 16) {
      std::this_thread::yield();
      continue;
    }
    // Nothing acquirable but the barrier still holds.  Under GTB, re-flush
    // before sleeping: a task executed meanwhile (here or on another
    // worker) may have spawned into a window, and the barrier's entry-time
    // flush cannot have seen it — without this the awaited task sits in the
    // buffer forever.
    if (gtb_) gtb_->flush();
    if (!may_park) continue;
    // Park until the completion side notifies (see parker.hpp for the
    // Dekker pairing with the completer).  Registration happens once and
    // stays in place across parks; under GTB parks are timed so the flush
    // above re-runs periodically.
    if (waiter == nullptr) {
      waiter = this_thread_waiter();
      if (wtask != nullptr) {
        wtask->waiter.store(waiter, std::memory_order_release);
      } else if (wlist != nullptr) {
        wlist->add(waiter);
      }
    }
    // A frame entered while the thread owned its slot switches to blocked
    // mode once an inner frame handed the slot off: it can neither help
    // nor park on the slot, and would otherwise spin here until the
    // barrier opens.
    if (!blocked_mode && scheduler_->current_slot() == Scheduler::kNoSlot) {
      blocked_mode = true;
    }
    if (blocked_mode) {
      waiter->slot.store(nullptr, std::memory_order_release);
      waiter->parker.prepare_park();
      if (done()) {
        waiter->parker.cancel_park();
        break;
      }
      if (gtb_) {
        waiter->parker.park_for(std::chrono::microseconds(1000));
      } else {
        waiter->parker.park();
      }
    } else {
      // Slot-owning waiter parks on its worker slot's Parker, so producer
      // wakes (new work published to this worker) reach it too — it
      // surfaces, helps, and re-parks.  The scheduler names that Parker in
      // waiter->slot, where the completion notify finds it.
      scheduler_->park_worker_for_barrier(
          waiter->slot,
          [](void* ctx) { return (*static_cast<Done*>(ctx))(); }, &done,
          gtb_ ? std::chrono::microseconds(1000)
               : std::chrono::microseconds(0));
    }
  }
  if (waiter != nullptr) {
    if (wtask != nullptr) {
      wtask->waiter.store(nullptr, std::memory_order_release);
    } else if (wlist != nullptr) {
      wlist->remove(waiter);
    }
    waiter->slot.store(nullptr, std::memory_order_release);
  }
}

void Runtime::wait_all() {
  if (gtb_) gtb_->flush();
  if (Task* self = tls_task_frame.runtime == this ? tls_task_frame.task
                                                  : nullptr) {
    // In-task taskwait (OpenMP semantics): barrier over THIS task's
    // children only.  A global pending==0 barrier would count the waiting
    // task itself — and any sibling waiter — and never open.
    help_until(
        [self] {
          return (self->children.load(std::memory_order_acquire) &
                  Task::kLiveMask) == 0;
        },
        /*wtask=*/self, /*wlist=*/nullptr);
  } else {
    help_until([this] { return pending_.load(std::memory_order_acquire) == 0; },
               /*wtask=*/nullptr, /*wlist=*/&waiters_);
    // Every task completed has pushed itself onto the tracker's retired
    // list before its units dropped: drop their pins now, so the barrier
    // leaves no live region and no pinned slot.
    tracker_.reclaim();
  }
  rethrow_pending_error();
}

void Runtime::wait_group(GroupId group) {
  // Flush every buffer, not only `group`: a task of this group may depend
  // on a still-buffered task of another group, and a partial flush would
  // deadlock the barrier.
  if (gtb_) gtb_->flush();
  TaskGroup& g = group_ref(group);
  // Fail fast on the in-task self-deadlock shapes: a member of `group`
  // waiting on its own group stays pending until after its body returns,
  // so the barrier it spins on can never open once a second member does
  // the same — and the hazard arises transitively when a helping barrier
  // has SUSPENDED another task of `group` beneath this one on the worker's
  // stack (an in-task wait_all picked it up; it cannot complete while we
  // spin above it).  The frame chain enumerates exactly the tasks this
  // thread has suspended (none on a plain thread), so any `group` member
  // on it means the wait can hang — throw instead of deadlocking.  Prefer
  // in-task wait_all (children scope, immune by construction) or wait on
  // groups whose tasks do not themselves barrier.
  for (const ThreadTaskFrame* f = &tls_task_frame; f != nullptr; f = f->prev) {
    if (f->runtime == this && f->task != nullptr && f->task->group == group) {
      throw std::logic_error(
          "sigrt: wait_group(" + g.name() +
          ") from inside a task of that group would deadlock: the "
          "waiting/suspended task stays pending until its body returns, "
          "so the group can never quiesce under it; wait_all() scopes to "
          "children and is safe here");
    }
  }
  help_until([&g] { return g.pending() == 0; }, /*wtask=*/nullptr,
             /*wlist=*/&g.waiters());
  if (tls_task_frame.runtime != this) tracker_.reclaim();  // as in wait_all
  rethrow_pending_error();
}

void Runtime::wait_on(const void* ptr, std::size_t bytes) {
  if (gtb_) gtb_->flush();

  // A fence task with an in() clause on the range depends on exactly the
  // pending writers of that range; its body raises `done`, then wakes this
  // thread's own waiter handle (fence before the notify, parker.hpp).  The
  // flag lives on this stack frame, which may unwind as soon as the store
  // lands — so the body touches nothing of this frame after it, only the
  // immortal handle.  In-task, the waiter is also registered on the
  // calling task, which the fence pins as its parent.  help_until's
  // re-flush covers a writer of this range that a concurrent spawner
  // parked in a GTB window after the entry flush above.
  std::atomic<bool> done{false};
  BarrierWaiter* const waiter = this_thread_waiter();
  Task* self = tls_task_frame.runtime == this ? tls_task_frame.task : nullptr;
  TaskOptions fence;
  fence.accurate = [&done, waiter] {
    done.store(true, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    waiter->notify();
  };
  fence.significance = 1.0;
  fence.group = kDefaultGroup;
  fence.accesses.push_back({ptr, bytes, dep::Mode::In});
  spawn_impl(std::move(fence), /*internal=*/true);
  help_until([&done] { return done.load(std::memory_order_acquire); },
             /*wtask=*/self, /*wlist=*/nullptr);
  rethrow_pending_error();
}

PoolStats Runtime::pool_stats() const { return scheduler_->pool_stats(); }

void Runtime::rethrow_pending_error() {
  std::exception_ptr err;
  {
    support::MutexLock lock(error_mutex_);
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  {
    support::ReaderLock lock(groups_mutex_);
    // The raw counters, which only go up: a group's reset_stats() only
    // moves the baseline its own report() subtracts.
    for (const auto& g : groups_) {
      const GroupCounts c = g->totals();
      s.spawned += c.spawned;
      s.accurate += c.accurate;
      s.approximate += c.approximate;
      s.dropped += c.dropped;
      s.redone += c.redone;
      s.corrupted_detected += c.corrupted_detected;
    }
  }
  const SchedulerStats sched = scheduler_->stats();
  s.steals = sched.steals;
  s.inline_spawns = inline_spawns_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.busy_s = static_cast<double>(sched.busy_ns) * 1e-9;
  s.wall_s = static_cast<double>(support::now_ns() - start_ns_) * 1e-9;
  s.dep_edges = tracker_.edges();
  return s;
}

void Runtime::dump_state(FILE* out) const {
  std::fprintf(out, "runtime: pending=%llu policy=%s\n",
               static_cast<unsigned long long>(pending_.load()),
               policy_name());
  {
    support::ReaderLock lock(groups_mutex_);
    for (const auto& g : groups_) {
      std::fprintf(out, "  group %u '%s': pending=%llu ratio=%.3f\n", g->id(),
                   g->name().c_str(),
                   static_cast<unsigned long long>(g->pending()), g->ratio());
    }
  }
  scheduler_->dump(out);
}

energy::Activity Runtime::activity_now() const {
  energy::Activity a;
  a.wall_s = static_cast<double>(support::now_ns() - start_ns_) * 1e-9;
  const auto [reliable_ns, unreliable_ns] = scheduler_->busy_ns_split();
  a.busy_s = static_cast<double>(reliable_ns) * 1e-9;
  a.busy_unreliable_s = static_cast<double>(unreliable_ns) * 1e-9;
  return a;
}

}  // namespace sigrt
