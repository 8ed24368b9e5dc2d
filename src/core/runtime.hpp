// The significance-aware runtime facade: ties together the dependence
// tracker, the classification policy (GTB at issue, LQH at dequeue), the
// work-sharing scheduler, group accounting and energy measurement.
//
// Typical use (Sobel, Listing 1 of the paper):
//
//   sigrt::Runtime rt({.workers = 16, .policy = sigrt::PolicyKind::GTB});
//   const auto sobel = rt.create_group("sobel", /*ratio=*/0.35);
//   for (int i = 1; i < HEIGHT - 1; ++i) {
//     rt.spawn(sigrt::task([=, &img, &res] { sbl_task(res, img, i); })
//                  .approx([=, &img, &res] { sbl_task_appr(res, img, i); })
//                  .significance((i % 9 + 1) / 10.0)
//                  .group(sobel)
//                  .in(img.data(), img.size())
//                  .out(res.row(i), WIDTH));
//   }
//   rt.wait_group(sobel);   // #pragma omp taskwait label(sobel) ratio(0.35)
//
// Threading contract (any-thread): spawn(), wait_all(), wait_group() and
// wait_on() are safe from ANY thread — multiple concurrent spawner threads,
// and task bodies themselves (nested parallelism, the OpenMP tasking model
// the paper lowers to).  Specifics:
//
//   * Worker-side spawns push straight into the calling worker's own
//     Chase-Lev deque (no inbox hop); task ids are minted from one atomic
//     counter, unique across any number of concurrent spawners.
//   * Every taskwait runs through one loop (help_until).  Issued from
//     inside a task body it never blocks the worker's OS thread: it drains,
//     steals and executes tasks until the barrier opens, and parks on the
//     worker slot's Parker only when nothing is acquirable.  Issued
//     from any other thread it does not help: it re-flushes a buffering
//     policy and parks on the thread's pooled waiter handle until the
//     barrier's completion side wakes it.  In-task wait_all() barriers on
//     the calling task's CHILDREN (OpenMP `#pragma omp taskwait`
//     semantics) — a global pending==0 barrier would count the waiting
//     task itself and deadlock sibling waiters.  Top-level wait_all()
//     keeps the global everything-spawned-so-far barrier.  In-task
//     wait_group(g) helps until g quiesces; calling it from inside a task
//     of g itself — or while a task of g sits suspended beneath the caller
//     on the worker's helping stack — can never open (the waiter stays
//     pending in g until its body returns) and throws std::logic_error
//     instead of deadlocking.  Use in-task wait_all() (children scope)
//     there.
//   * create_group/ensure_group/set_ratio are safe from any thread (the
//     group table is lock-free and the ratio is a relaxed atomic — see the
//     table in docs/architecture.md); stats and activity are readable from
//     any thread.
//   * Exception — inline mode (workers == 0): execution happens
//     synchronously on the enqueuing thread over an unsynchronized queue
//     (the deterministic single-threaded twin used by tests), so the
//     any-thread contract requires workers >= 1.  Inline-mode clients must
//     drive the runtime from one thread at a time; nesting (spawn/taskwait
//     from inside bodies) is fully supported there.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/group.hpp"
#include "core/policy_gtb.hpp"
#include "core/policy_lqh.hpp"
#include "core/scheduler.hpp"
#include "core/task.hpp"
#include "core/task_options.hpp"
#include "core/types.hpp"
#include "dep/block_tracker.hpp"
#include "energy/meter.hpp"

namespace sigrt {

/// Aggregate runtime counters (see GroupReport for per-group accounting).
struct RuntimeStats {
  std::uint64_t spawned = 0;
  std::uint64_t accurate = 0;
  std::uint64_t approximate = 0;
  std::uint64_t dropped = 0;
  std::uint64_t steals = 0;
  std::uint64_t dep_edges = 0;
  /// Spawns executed inline on the spawner by the work-first throttle
  /// (own queue above Runtime::kSpawnInlineWatermark).
  std::uint64_t inline_spawns = 0;
  /// Approximate tasks dropped by an armed fault plan: the TaskCorrupt
  /// site on an unreliable worker (the §6 NTC silent failure) or the
  /// TaskCrash site in the approximate body.
  std::uint64_t faults = 0;
  /// Accurate re-executions after a body fault or check() rejection
  /// (summed over groups; one count per re-execution).
  std::uint64_t redone = 0;
  /// check() rejections — silent corruptions caught by validators.
  std::uint64_t corrupted_detected = 0;
  double busy_s = 0.0;
  double wall_s = 0.0;
};

class Runtime final : public energy::ActivitySource {
 public:
  /// Helping-depth cap: an in-task barrier nested deeper than this many
  /// helping frames on one thread stops helping (C++ stack depth tracks
  /// helping depth) and blocks after handing its slot to a spare thread.
  static constexpr unsigned kHelpingDepth = 16;

  /// Work-first spawn throttle: when a worker's own queues hold more than
  /// this many tasks, a dependency-free spawn with no GTB buffer to pass
  /// runs inline on the spawner (the OpenMP task-creation cutoff), so
  /// queue memory stays bounded at extreme fan-out.
  static constexpr unsigned kSpawnInlineWatermark = 256;

  explicit Runtime(RuntimeConfig config = {});

  /// Quiesces (flush + wait) and joins the workers.  Pending task errors are
  /// swallowed here; call wait_all() first if you care about them.
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- groups ------------------------------------------------------------

  /// Creates a task group (the label() clause) with its accurate-execution
  /// ratio().  Creating an existing name returns the existing group and
  /// retargets its ratio.
  GroupId create_group(const std::string& name, double ratio);

  /// Find-or-create by name without retargeting an existing group's ratio.
  /// New groups start at ratio 1.0 until a taskwait ratio() sets them (this
  /// is tpc_init_group's find-or-create behaviour, §3.1).
  GroupId ensure_group(const std::string& name);

  /// Retargets a group's ratio() — e.g. Fluidanimate alternates 1.0 / r
  /// between time steps (§4.1), and the serving layer's QosController
  /// retargets it every epoch from its own thread.
  ///
  /// Safe from ANY thread, concurrently with spawns and classification: the
  /// group lookup goes through the lock-free group table and the ratio is a
  /// relaxed atomic store.  The relaxed contract means no synchronization
  /// is implied — a task classified concurrently with the store may observe
  /// either the old or the new ratio, and tasks already classified (GTB) or
  /// already dequeued keep the decision they got.  Callers needing a hard
  /// cut must barrier (wait_group) around the retarget.
  void set_ratio(GroupId group, double ratio);

  [[nodiscard]] TaskGroup& group(GroupId id);
  [[nodiscard]] GroupReport group_report(GroupId id) const;
  [[nodiscard]] std::vector<GroupReport> all_group_reports() const;

  // --- spawning & synchronization -----------------------------------------

  /// Spawns a task.  Significance outside [0,1] is clamped.  Throws
  /// std::invalid_argument when no accurate body is provided.
  void spawn(TaskOptions options);
  /// Builder overload: consumes the builder's options in place (single move
  /// per body, no intermediate TaskOptions).
  void spawn(TaskBuilder&& builder) {
    spawn_impl(std::move(builder).take(), /*internal=*/false);
  }

  /// #pragma omp taskwait — from outside any task body: barrier over all
  /// tasks spawned so far; from inside one: barrier over the calling
  /// task's children, executed as a non-blocking helping loop (see the
  /// header comment).  Rethrows the first exception thrown by any task
  /// since the last wait.
  void wait_all();

  /// #pragma omp taskwait label(...) — barrier over one group.  In-task
  /// callers help instead of blocking.  Throws std::logic_error when the
  /// calling task (or any task suspended beneath it on this thread's
  /// helping stack) belongs to `group` — that wait can never open; see the
  /// header comment.
  void wait_group(GroupId group);

  /// #pragma omp taskwait on(...) — waits for the pending writers of the
  /// given byte range.  In-task callers help instead of blocking.
  void wait_on(const void* ptr, std::size_t bytes);

  /// Declares that the calling thread is about to block outside the
  /// runtime (a socket read, an external condvar).  From inside a task
  /// body on a slot-owning worker this hands the worker slot to a spare
  /// thread so the pool keeps its parallelism while the body blocks;
  /// returns true when a handoff happened.  One-way per episode: the
  /// thread re-pools when the task body unwinds, not when this returns.
  /// No-op (false) outside a task body of this runtime, in inline mode,
  /// on a thread that already handed its slot off, and while the spare
  /// budget is exhausted (Scheduler::detach_for_blocking).
  bool begin_blocking();

  /// Elastic-pool counters (handoffs, spares, steal locality).
  [[nodiscard]] PoolStats pool_stats() const;

  /// Per-worker {near, far} steal counters, indexed by worker slot
  /// (reporting path — allocates the result vector).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  steal_locality() const;

  // --- introspection -------------------------------------------------------

  [[nodiscard]] RuntimeStats stats() const;
  [[nodiscard]] const RuntimeConfig& config() const noexcept { return config_; }
  [[nodiscard]] const char* policy_name() const noexcept {
    return to_string(config_.policy);
  }
  [[nodiscard]] const dep::BlockTracker& tracker() const noexcept {
    return tracker_;
  }

  /// Energy meter: RAPL when available, the E5-2650 activity model
  /// otherwise.  Wrap regions in energy::Scope to measure.
  [[nodiscard]] energy::Meter& meter() noexcept { return *meter_; }

  /// ActivitySource: cumulative wall/busy seconds for the model meter.
  [[nodiscard]] energy::Activity activity_now() const override;

  /// Diagnostic snapshot of pending counters and scheduler queues; written
  /// to `out`.  Intended for deadlock/stall triage from a watchdog thread.
  void dump_state(FILE* out) const;

 private:
  // GTB reads a window's group ratio() and releases the classified window.
  friend class GtbPolicy;

  /// Drops the policy hold of every task in a classified GTB window and
  /// publishes the runnable subset as one batched scheduler enqueue — the
  /// spawn-batching fast path — through a thread-local scratch buffer, so
  /// a flush allocates nothing.
  void release_bulk(const std::vector<TaskRef>& tasks);
  [[nodiscard]] TaskGroup& group_ref(GroupId id);

  void execute_task(Task& task, unsigned worker);
  void classify_at_dequeue(Task& task, unsigned worker);
  void spawn_impl(TaskOptions&& options, bool internal);
  /// The one barrier loop behind every wait_*, from a task body or from
  /// any other thread: runs/steals tasks on the calling thread until
  /// `done()` holds.  A waiter that finds nothing acquirable registers its
  /// BarrierWaiter on `wtask` (children scope) or else on `wlist`
  /// (quiescence scope; wait_on passes neither — its fence notifies the
  /// handle directly) and parks: on its worker slot's Parker while it owns
  /// one, on its own Parker otherwise.  A thread without a slot — a plain thread,
  /// or a worker past kHelpingDepth or inside begin_blocking() — never
  /// helps, only re-flushes and parks.  Under GTB parks are timed so the
  /// buffered windows are re-flushed.  Inline mode helps and
  /// flushes but never parks.
  template <typename Done>
  void help_until(Done done, Task* wtask, WaiterList* wlist);
  void on_task_finished();
  void rethrow_pending_error();
  void publish_group(GroupId id, TaskGroup* group) noexcept;

  RuntimeConfig config_;
  dep::BlockTracker tracker_;
  /// The policy's decision point: a GTB buffer under GTB/GTBMaxBuffer, an
  /// LQH history under LQH, neither under Agnostic (every task accurate).
  /// No GTB buffer is what opens the spawn fast path.
  std::optional<GtbPolicy> gtb_;
  std::optional<LqhPolicy> lqh_;

  mutable support::SharedMutex groups_mutex_;
  std::vector<std::unique_ptr<TaskGroup>> groups_ SIGRT_GUARDED_BY(groups_mutex_);
  std::unordered_map<std::string, GroupId> group_names_
      SIGRT_GUARDED_BY(groups_mutex_);

  /// Lock-free fast path for group_ref(): workers resolve a group's live
  /// ratio() on every LQH dequeue decision, so that lookup must not take
  /// groups_mutex_.  Slots are published with a release store after the
  /// group object exists; ids beyond the table fall back to the lock.
  static constexpr std::size_t kGroupFastTableSize = 1024;
  std::unique_ptr<std::atomic<TaskGroup*>[]> group_table_;

  std::atomic<std::uint64_t> pending_{0};
  /// Top-level wait_all waiters; on_task_finished notifies them when
  /// pending_ reaches zero.
  WaiterList waiters_;

  std::atomic<TaskId> next_task_id_{1};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> inline_spawns_{0};
  support::Mutex error_mutex_;
  std::exception_ptr first_error_ SIGRT_GUARDED_BY(error_mutex_);

  std::int64_t start_ns_;
  std::unique_ptr<Scheduler> scheduler_;  // after gtb_/lqh_: its hook reads them
  std::unique_ptr<energy::Meter> meter_;
};

/// Id of the task currently executing on the calling thread, or 0 when the
/// caller is not inside a task body.  Thread-local, nesting-aware (helping
/// re-entrancy restores the outer task's id when the inner one finishes).
[[nodiscard]] TaskId current_task_id() noexcept;

/// RAII wrapper over Runtime::begin_blocking() for task bodies that block
/// on external events (sockets, pipes, foreign condvars):
///
///   rt.spawn(sigrt::task([&] {
///     sigrt::BlockingSection bs(rt);   // slot handed to a spare
///     ::recv(fd, ...);                 // pool stays at full parallelism
///   }));
///
/// The destructor is deliberately a no-op: the handoff is one-way per task
/// episode (the thread re-pools when the body unwinds), so the object only
/// documents the blocking span and reports whether a handoff happened.
class BlockingSection {
 public:
  explicit BlockingSection(Runtime& rt) : detached_(rt.begin_blocking()) {}
  BlockingSection(const BlockingSection&) = delete;
  BlockingSection& operator=(const BlockingSection&) = delete;

  /// True when the worker slot was actually handed to a spare thread.
  [[nodiscard]] bool detached() const noexcept { return detached_; }

 private:
  bool detached_;
};

}  // namespace sigrt
