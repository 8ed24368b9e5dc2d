// Significance-aware serving layer: maps incoming requests onto runtime
// task groups and closes the loop between load and quality.
//
//   sigrt::serve::Server srv({.runtime = {.workers = 8}});
//   sigrt::serve::RequestClassConfig cfg;
//   cfg.name = "sobel";
//   cfg.qos.deadline_ns = 25e6;      // p99 objective: 25 ms
//   cfg.qos.quality_floor = 0.2;     // never serve < 20% accurate
//   const auto cls = srv.register_class(cfg);
//   const auto t = srv.register_tenant({.name = "acme", .max_in_flight = 64});
//   ...
//   srv.submit(cls, t, {.accurate = [=] { full_filter(req); },
//                       .approximate = [=] { cheap_filter(req); },
//                       .significance = 0.6});
//
// Three moving parts above the Runtime facade:
//   * admission (client threads): per-tenant x per-class in-flight
//     accounting with a shed-or-degrade policy — a tenant over its fairness
//     watermark sheds its own BestEffort and degrades its own Degradable
//     traffic before any other tenant's Critical class feels load — then a
//     push into the class's spinlocked EDF heap, the only queue stage;
//   * dispatchers (N threads, ServerOptions::dispatcher_threads): issue
//     from the per-class EDF heaps, earliest deadline first, up to each
//     class's dispatch window of in-runtime requests; issued requests pass
//     the controller's perforation rotor and are spawned as one
//     significance-carrying task each into the class's group.  Spawning is
//     safe from any thread (the runtime's any-thread contract), so the
//     dispatcher tier shards horizontally; the per-class heap lock keeps
//     EDF order global across dispatchers.  An idle dispatcher parks on
//     its own Parker with no timeout (see dispatcher_loop);
//   * QoS controller (one thread): every epoch, diffs each class's sharded
//     latency histogram into a window, computes p99 + in-flight depth, and
//     retargets the group's ratio() through Runtime::set_ratio — the
//     any-thread relaxed-atomic contract documented in architecture.md.
//
// Every way an admitted request leaves — a body returned or threw, the
// watchdog, perforation, EDF expiry, a submit that raced shutdown — runs
// one function, resolve(), which keeps the counters, fires the callback
// and releases the reservations (docs/serving.md has the exit table).
//
// Threading contract: register_class/register_tenant/submit/stats/
// class_report are safe from any thread; submit must not race
// close()/destruction (quiesce your producers first — late racers are
// resolved as shutdown drops, never leaked; their on_drop still fires).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/parker.hpp"
#include "core/runtime.hpp"
#include "serve/admission.hpp"
#include "serve/qos_controller.hpp"
#include "serve/request.hpp"
#include "support/histogram.hpp"
#include "support/mutex.hpp"
#include "support/spinlock.hpp"

namespace sigrt::serve {

struct ServerOptions {
  /// Configuration for the owned Runtime.  Serving forces dequeue-time
  /// classification (buffering policies would strand low-rate requests
  /// until a barrier that never comes), disables the per-task log (it grows
  /// without bound under open-ended traffic) and runs reliable workers only
  /// (every admitted request must complete exactly one body).
  RuntimeConfig runtime;

  /// QoS controller sampling period.  0 disables the controller thread:
  /// ratios stay wherever register_class/set_ratio put them (used by the
  /// deterministic admission tests and by callers driving ratios manually).
  double epoch_ms = 10.0;

  /// Dispatcher (spawner) threads issuing from the EDF heaps; clamped to
  /// exactly 1 when the runtime is inline (workers == 0, whose synchronous
  /// queue admits a single client thread).  0 = auto: one dispatcher per
  /// last-level-cache group, bounded by workers/2 (see
  /// topo::Topology::recommended_dispatchers) — single-socket desktops get
  /// 1, multi-CCX/multi-socket boxes shard the spawn tier.  One dispatcher
  /// preserves global EDF issue order trivially; more remove the
  /// single-spawner bottleneck under high submit rates (the per-class heap
  /// lock still serializes each class's issue order).
  unsigned dispatcher_threads = 0;

  /// Per-class dispatch window: at most this many of a class's requests
  /// sit inside the runtime (spawned, not yet completed) at once; the rest
  /// wait in the class's EDF heap where a later, more urgent arrival can
  /// still overtake them.  0 = auto (max(4, 2 x workers)).  Small windows
  /// sharpen EDF at a small pipelining cost; large ones converge to FIFO.
  std::size_t edf_window = 0;

  /// Called at the start of every thread the server owns (role is
  /// "dispatcher" or "controller"; network frontends reuse it for their
  /// pollers).  Benchmarks use it to tag serve-tier threads for
  /// allocation instrumentation.  Optional.
  std::function<void(const char* role, unsigned index)> thread_start_hook;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// close()s, which drains every admitted request before joining.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a request class and creates its task group ("serve/<name>")
  /// at the controller's initial ratio.  Any thread; throws
  /// std::length_error beyond kMaxClasses.
  ClassId register_class(RequestClassConfig config);

  /// Registers a tenant.  Any thread; throws std::length_error beyond
  /// kMaxTenants.  Tenant 0 ("default", unbounded) always exists.
  TenantId register_tenant(TenantConfig config);

  /// Admission control + enqueue for the default tenant.  Any thread.
  /// Shed requests never touch the runtime; Degraded ones are served
  /// through the approximate body.
  Admission submit(ClassId cls, Job job) {
    return submit(cls, kDefaultTenant, std::move(job));
  }

  /// Tenant-aware admission: the request must clear the tenant's quota and
  /// fairness watermark AND the class's bounds, in that order.
  Admission submit(ClassId cls, TenantId tenant, Job job);

  /// Graceful shutdown, phase-ordered: quiesce admission (new submissions
  /// shed), serve every admitted request to completion (dispatchers keep
  /// issuing the EDF backlog, EDF-order; nothing admitted is shed — a
  /// submit caught mid-admission by the flip is either served or resolved
  /// as a shutdown drop), then stop the dispatcher and controller threads.
  /// Idempotent; close() calls it first.  Requests stuck past their class
  /// watchdog still resolve (as drops) while the controller runs.
  void drain();

  /// drain(), then waits until every request node is back in the pool
  /// (the last task holding one has retired).  Idempotent.
  void close();

  /// The class's watchdog budget (0 = disabled) — frontends use it to
  /// decide whether a request needs timeout-response plumbing.  Any thread.
  [[nodiscard]] std::int64_t class_watchdog_ns(ClassId cls) const {
    return class_ref(cls).cfg.watchdog_ns;
  }

  [[nodiscard]] ClassReport class_report(ClassId cls) const;
  [[nodiscard]] TenantReport tenant_report(TenantId tenant) const;
  [[nodiscard]] ServerStats stats() const;

  /// Cheap validity bounds (one acquire load each) so frontends can reject
  /// unknown ids without exception control flow on the request path.
  [[nodiscard]] std::size_t class_count() const noexcept {
    return class_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenant_count_.load(std::memory_order_acquire);
  }

  /// Zeroes every class's latency histogram — windowing tool for tests and
  /// benchmarks that want steady-state percentiles after a warmup phase.
  /// Counters (submitted/shed/...) are left intact.
  void reset_latency_stats();

  [[nodiscard]] Runtime& runtime() noexcept { return *runtime_; }

  static constexpr std::size_t kMaxClasses = 64;
  static constexpr std::size_t kMaxTenants = 32;

 private:
  /// One (tenant, class) accounting cell: every counter a TenantClassCell
  /// reports, maintained at admission/completion time.  The only copy of
  /// the outcome counters — class_report sums the cells of its class.
  struct Cell {
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> perforated{0};
    std::atomic<std::uint64_t> served_accurate{0};
    std::atomic<std::uint64_t> served_approximate{0};
    std::atomic<std::uint64_t> served_dropped{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> timed_out{0};
  };

  struct TenantState {
    explicit TenantState(TenantConfig cfg_in) : cfg(std::move(cfg_in)) {}

    TenantConfig cfg;
    std::atomic<std::size_t> in_flight{0};  ///< across all classes
    std::array<Cell, kMaxClasses> cells{};
  };

  struct ClassState {
    ClassState(RequestClassConfig cfg_in, unsigned shards)
        : cfg(std::move(cfg_in)), qos(cfg.qos), latency(shards) {}

    RequestClassConfig cfg;
    GroupId group = kDefaultGroup;

    // Controller-thread-only state.
    QosController qos;
    support::Histogram window_prev;

    support::ShardedHistogram latency;
    std::atomic<double> perforation{0.0};

    /// EDF stage: admitted requests waiting to be issued, and the count of
    /// issued-but-uncompleted requests the dispatch window throttles.
    EdfQueue edf;
    std::atomic<std::size_t> in_runtime{0};

    /// Admitted, not yet resolved (heaped + in-runtime): the class bound
    /// admission checks.
    std::atomic<std::size_t> in_flight{0};

    /// Watchdog registry: intrusive doubly-linked list of issued requests
    /// (linked at dispatch, unlinked at resolve) the controller sweeps for
    /// overdue entries.  Only populated when cfg.watchdog_ns > 0.
    support::SpinLock wd_lock;
    Request* wd_head SIGRT_GUARDED_BY(wd_lock) = nullptr;
  };

  /// How an admitted request leaves the server.  The first four were
  /// issued to the runtime (they hold an in_runtime slot); the rest never
  /// were.  The order is load-bearing: resolve() compares against it.
  enum class Exit : std::uint8_t {
    Accurate,     ///< the accurate body returned
    Approximate,  ///< the approximate body returned
    Dropped,      ///< drop-style class served cheap, or a body threw
    TimedOut,     ///< the class watchdog gave up on a stuck body
    Perforated,   ///< dropped at issue by the controller's rung 2
    Expired,      ///< deadline passed while in the EDF heap
    Shutdown,     ///< a submit that raced drain()'s intake flip
  };

  [[nodiscard]] ClassState& class_ref(ClassId cls) const;
  [[nodiscard]] TenantState& tenant_ref(TenantId tenant) const;
  [[nodiscard]] std::size_t window_for() const noexcept;

  void dispatcher_loop(unsigned index);
  /// Issues EDF heads while dispatch windows allow.  Returns how many
  /// requests left the heaps.
  std::size_t issue_edf(double* rotor);
  /// `rotor` is the calling dispatcher's per-class perforation accumulator
  /// (kMaxClasses entries) — dispatcher-local, so N dispatchers never race
  /// on it; each enforces the drop fraction over its own batch stream.
  void dispatch(Request* r, double* rotor);
  /// Task body wrapper: runs the accurate or approximate body and resolves
  /// the request with the matching exit (Dropped when it has none or it
  /// throws).
  void run_body(Request* r, bool accurate);
  /// The one exit of an admitted request, resolving it exactly once (the
  /// `resolved` flag settles a body racing the watchdog): bumps the cell
  /// counters for `how`, fires on_drop / on_expire / on_timeout (falling
  /// back to on_drop) for exits that ran no body, releases in_runtime for
  /// issued exits and the class, tenant and cell in_flight for all, wakes a
  /// dispatcher when a freed window slot meets a backlog, and drops the
  /// ownership reference the exit holds.
  void resolve(Request* r, Exit how);
  void watchdog_link(ClassState& s, Request* r);
  /// Returns true when r was still linked (i.e. the sweep hadn't claimed
  /// it), so the caller owns the watchdog's reference.
  bool watchdog_unlink(ClassState& s, Request* r);
  /// Controller-tick pass: resolves every issued request overdue past its
  /// class watchdog as Exit::TimedOut.  The stuck body may still be
  /// running; the owners protocol keeps the Request alive until it exits.
  void watchdog_sweep();
  void request_unref(Request* r, int n);
  /// Unparks one parked dispatcher, if any.  Callers fence (seq_cst)
  /// between publishing the work and calling.
  void wake_dispatcher() noexcept;
  /// Flips running_, wakes every dispatcher and joins them.
  void stop_dispatchers();
  [[nodiscard]] bool has_issuable() const noexcept;

  void controller_loop();
  void controller_tick();

  ServerOptions options_;
  std::unique_ptr<Runtime> runtime_;

  std::array<std::atomic<ClassState*>, kMaxClasses> classes_{};
  std::atomic<std::uint32_t> class_count_{0};
  std::array<std::atomic<TenantState*>, kMaxTenants> tenants_{};
  std::atomic<std::uint32_t> tenant_count_{0};
  mutable support::Mutex register_mutex_;
  std::vector<std::unique_ptr<ClassState>> owned_classes_
      SIGRT_GUARDED_BY(register_mutex_);
  std::vector<std::unique_ptr<TenantState>> owned_tenants_
      SIGRT_GUARDED_BY(register_mutex_);

  RequestPool pool_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> running_{true};

  /// One per dispatcher thread, sized at construction and never resized:
  /// where dispatcher i sleeps when nothing is issuable.
  std::vector<Parker> parkers_;

  support::Mutex controller_mutex_;
  std::condition_variable controller_cv_;
  bool controller_stop_ SIGRT_GUARDED_BY(controller_mutex_) = false;

  support::Mutex close_mutex_;
  bool drained_ SIGRT_GUARDED_BY(close_mutex_) = false;
  bool closed_ SIGRT_GUARDED_BY(close_mutex_) = false;

  std::vector<std::thread> dispatchers_;
  std::thread controller_;
};

}  // namespace sigrt::serve
