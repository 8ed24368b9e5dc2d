#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/task_options.hpp"
#include "core/topology.hpp"
#include "support/timer.hpp"

namespace sigrt::serve {

namespace {

/// Serving constraints on the runtime configuration (see ServerOptions).
RuntimeConfig serving_config(RuntimeConfig c) {
  if (c.policy != PolicyKind::LQH && c.policy != PolicyKind::Agnostic) {
    // GTB-family policies buffer tasks until a window fills or a barrier
    // flushes; a server never reaches a barrier, so low-rate requests would
    // wait unboundedly.  LQH classifies at dequeue with zero buffering.
    c.policy = PolicyKind::LQH;
  }
  // The per-task log grows forever under open-ended traffic.
  c.record_task_log = false;
  // Every admitted request must complete exactly one body; an armed
  // TaskCorrupt plan silently drops approximate tasks on NTC workers
  // without running them.
  c.unreliable_workers = 0;
  return c;
}

/// Dispatcher-tier width.  Inline mode (workers == 0) executes on the
/// enqueuing thread over an unsynchronized queue — single client thread
/// only — so a sharded dispatcher tier would race on it; sharding
/// requires real workers.
unsigned dispatcher_count(const ServerOptions& options) {
  if (options.runtime.workers == 0) return 1u;
  const unsigned requested =
      options.dispatcher_threads != 0
          ? options.dispatcher_threads
          : topo::system_topology().recommended_dispatchers(
                options.runtime.workers);
  return std::max(1u, requested);
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      runtime_(std::make_unique<Runtime>(serving_config(options_.runtime))),
      parkers_(dispatcher_count(options_)) {
  for (auto& slot : classes_) slot.store(nullptr, std::memory_order_relaxed);
  for (auto& slot : tenants_) slot.store(nullptr, std::memory_order_relaxed);
  // Tenant 0 pre-exists with unbounded quotas, so tenant-oblivious callers
  // (and every pre-tenant test) see exactly the per-class semantics.
  register_tenant(TenantConfig{.name = "default"});
  // Any failure past the first thread must stop and join what already
  // started — destroying a joinable std::thread terminates.
  try {
    dispatchers_.reserve(parkers_.size());
    for (unsigned i = 0; i < parkers_.size(); ++i) {
      dispatchers_.emplace_back([this, i] { dispatcher_loop(i); });
    }
    if (options_.epoch_ms > 0.0) {
      controller_ = std::thread([this] { controller_loop(); });
    }
  } catch (...) {
    stop_dispatchers();
    throw;
  }
}

Server::~Server() { close(); }

ClassId Server::register_class(RequestClassConfig config) {
  support::MutexLock lock(register_mutex_);
  const std::uint32_t id = class_count_.load(std::memory_order_relaxed);
  if (id >= kMaxClasses) {
    throw std::length_error("serve::Server: too many request classes");
  }
  // One latency-histogram shard per recording thread — the workers, plus
  // the dispatcher, which records completions in inline mode — so
  // recording threads rarely contend on a shard.
  auto state = std::make_unique<ClassState>(std::move(config),
                                            runtime_->config().workers + 1);
  state->group = runtime_->create_group("serve/" + state->cfg.name,
                                        QosController::kInitialRatio);
  ClassState* ptr = state.get();
  owned_classes_.push_back(std::move(state));
  classes_[id].store(ptr, std::memory_order_release);
  class_count_.store(id + 1, std::memory_order_release);
  return id;
}

TenantId Server::register_tenant(TenantConfig config) {
  support::MutexLock lock(register_mutex_);
  const std::uint32_t id = tenant_count_.load(std::memory_order_relaxed);
  if (id >= kMaxTenants) {
    throw std::length_error("serve::Server: too many tenants");
  }
  auto state = std::make_unique<TenantState>(std::move(config));
  TenantState* ptr = state.get();
  owned_tenants_.push_back(std::move(state));
  tenants_[id].store(ptr, std::memory_order_release);
  tenant_count_.store(id + 1, std::memory_order_release);
  return id;
}

Server::ClassState& Server::class_ref(ClassId cls) const {
  if (cls >= class_count_.load(std::memory_order_acquire)) {
    throw std::out_of_range("serve::Server: unknown request class");
  }
  return *classes_[cls].load(std::memory_order_acquire);
}

Server::TenantState& Server::tenant_ref(TenantId tenant) const {
  if (tenant >= tenant_count_.load(std::memory_order_acquire)) {
    throw std::out_of_range("serve::Server: unknown tenant");
  }
  return *tenants_[tenant].load(std::memory_order_acquire);
}

std::size_t Server::window_for() const noexcept {
  if (options_.edf_window != 0) return options_.edf_window;
  return std::max<std::size_t>(4, 2 * runtime_->config().workers);
}

Admission Server::submit(ClassId cls, TenantId tenant, Job job) {
  ClassState& s = class_ref(cls);
  TenantState& t = tenant_ref(tenant);
  Cell& cell = t.cells[cls];
  if (!accepting_.load(std::memory_order_acquire)) {
    cell.shed.fetch_add(1, std::memory_order_relaxed);
    return Admission::Shed;
  }

  // Tenant-first admission, so one tenant's overload consumes its own
  // budget before it can touch the shared class bound.  Both reservations
  // are optimistic (reserve-then-check, one RMW each) and unwound in
  // reverse on any shed so the ordering invariant "tenant slot held while
  // class slot held" is never violated.
  //
  // Rung order per submission:
  //   1. tenant hard quota        -> shed, whatever the class criticality
  //   2. tenant fairness share    -> BestEffort sheds, Degradable degrades,
  //                                  Critical passes untouched
  //   3. class max_in_flight      -> shed (the shared backstop)
  //   4. class degrade watermark  -> degrade
  const std::size_t t_depth =
      t.in_flight.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (t_depth > t.cfg.max_in_flight) {
    t.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    cell.shed.fetch_add(1, std::memory_order_relaxed);
    return Admission::Shed;
  }
  bool degraded = false;
  if (t.cfg.fair_in_flight != 0 && t_depth > t.cfg.fair_in_flight) {
    switch (s.cfg.criticality) {
      case Criticality::BestEffort:
        t.in_flight.fetch_sub(1, std::memory_order_acq_rel);
        cell.shed.fetch_add(1, std::memory_order_relaxed);
        return Admission::Shed;
      case Criticality::Degradable:
        degraded = true;
        break;
      case Criticality::Critical:
        break;
    }
  }

  // Class-level bound on *in-flight* requests (queued + executing), so the
  // back-pressure survives the hand-off into the scheduler.  seq_cst: the
  // reservation is this submit's half of the intake handshake with drain()
  // (see the re-check below).
  const std::size_t depth =
      s.in_flight.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (depth > s.cfg.max_in_flight) {
    s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    t.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    cell.shed.fetch_add(1, std::memory_order_relaxed);
    return Admission::Shed;
  }
  degraded |= s.cfg.degrade_in_flight != 0 && depth > s.cfg.degrade_in_flight;

  const std::int64_t now = support::now_ns();
  const std::int64_t budget =
      job.deadline_ns > 0 ? job.deadline_ns
                          : static_cast<std::int64_t>(s.cfg.qos.deadline_ns);

  Request* r = pool_.acquire();
  r->job = std::move(job);
  r->cls = cls;
  r->tenant = tenant;
  r->arrival_ns = now;
  r->deadline_ns = now + budget;
  r->degraded = degraded;
  r->issue_ns = 0;
  r->resolved.store(false, std::memory_order_relaxed);
  // The admission path holds the only reference until dispatch, where it
  // is adopted by the spawned task's callables (BodyRef); the watchdog
  // takes its own reference there (see the owners protocol in
  // request.hpp).
  r->owners.store(1, std::memory_order_relaxed);
  r->wd_next = nullptr;
  r->wd_prev = nullptr;

  cell.in_flight.fetch_add(1, std::memory_order_relaxed);
  cell.submitted.fetch_add(1, std::memory_order_relaxed);
  if (degraded) cell.degraded.fetch_add(1, std::memory_order_relaxed);
  const Admission verdict = degraded ? Admission::Degraded : Admission::Admitted;
  // A submit that passed the intake check just before drain() flipped it
  // is admitted, but must not reach a heap the dispatchers may have left.
  // Dekker with drain(): its seq_cst flip precedes its seq_cst in_flight
  // reads, the class reservation above precedes this seq_cst load, so
  // either drain() sees the reservation and waits for the request to be
  // served, or this sees the flip and resolves it as a shutdown drop.
  if (!accepting_.load(std::memory_order_seq_cst)) {
    resolve(r, Exit::Shutdown);
    return verdict;
  }
  s.edf.push(r);
  // Publisher half of the dispatcher park (see dispatcher_loop): either a
  // parking dispatcher's re-check sees this push, or the parked flag read
  // in wake_dispatcher sees the dispatcher.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_dispatcher();
  return verdict;
}

void Server::wake_dispatcher() noexcept {
  // Callers publish (heap push, in_runtime release) and fence first.  Under
  // load no dispatcher is parked, so the common case is one load per
  // dispatcher and no RMW; one woken dispatcher drains every heap.
  for (Parker& p : parkers_) {
    if (p.parked() && p.unpark()) return;
  }
}

void Server::stop_dispatchers() {
  running_.store(false, std::memory_order_release);
  // Shutdown wake: a dispatcher whose park re-check missed the flag is
  // seen parked here (the fence pairs with the one in prepare_park).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (Parker& p : parkers_) p.unpark();
  for (auto& d : dispatchers_) {
    if (d.joinable()) d.join();
  }
}

std::size_t Server::issue_edf(double* rotor) {
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  const std::size_t window = window_for();
  std::size_t issued = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    ClassState& s = *classes_[i].load(std::memory_order_acquire);
    while (s.edf.size() > 0) {
      if (s.in_runtime.load(std::memory_order_relaxed) >= window) break;
      Request* r = s.edf.try_pop();
      if (r == nullptr) break;  // another dispatcher won the race
      // Lazy deadline-expiry shed: a request whose deadline already passed
      // while it waited in the heap cannot meet its objective — spending a
      // window slot and a worker on it only delays the requests behind it.
      // Checked at pop (EDF order means everything deeper is no older), so
      // an idle server pays nothing for it.
      if (s.cfg.shed_expired && r->deadline_ns < support::now_ns()) {
        resolve(r, Exit::Expired);
        ++issued;
        continue;
      }
      dispatch(r, rotor);
      ++issued;
    }
  }
  return issued;
}

bool Server::has_issuable() const noexcept {
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  const std::size_t window = window_for();
  for (std::uint32_t i = 0; i < n; ++i) {
    const ClassState& s = *classes_[i].load(std::memory_order_acquire);
    if (s.edf.size() > 0 &&
        s.in_runtime.load(std::memory_order_relaxed) < window) {
      return true;
    }
  }
  return false;
}

void Server::dispatcher_loop(unsigned index) {
  if (options_.thread_start_hook) options_.thread_start_hook("dispatcher", index);
  Parker& parker = parkers_[index];
  // Per-dispatcher perforation rotors: each dispatcher enforces the drop
  // fraction over its own issue stream, so N dispatchers never race on an
  // accumulator (the aggregate drop rate converges to the same level).
  std::vector<double> rotor(kMaxClasses, 0.0);
  while (running_.load(std::memory_order_acquire)) {
    if (issue_edf(rotor.data()) != 0) continue;
    // Untimed two-phase park (parker.hpp).  Everything that can make a
    // request issuable — the heap push in submit, the in_runtime release in
    // resolve, running_ = false in stop_dispatchers — is followed by a
    // seq_cst fence and a read of the parked flags, so either this re-check
    // sees the change or the writer sees us parked and wakes us.
    parker.prepare_park();
    if (has_issuable() || !running_.load(std::memory_order_acquire)) {
      parker.cancel_park();
      continue;
    }
    parker.park();
  }
  // No backlog to drain here: drain() stops the dispatchers only once every
  // admitted request has resolved, and no submit can push after that (see
  // the intake handshake in submit).
}

void Server::request_unref(Request* r, int n) {
  // acq_rel: the releasing side publishes its writes to the node, the last
  // owner acquires them before recycling it.
  if (r->owners.fetch_sub(n, std::memory_order_acq_rel) == n) {
    pool_.release(r);
  }
}

void Server::watchdog_link(ClassState& s, Request* r) {
  support::SpinLockGuard lock(s.wd_lock);
  r->wd_prev = nullptr;
  r->wd_next = s.wd_head;
  if (s.wd_head != nullptr) s.wd_head->wd_prev = r;
  s.wd_head = r;
}

bool Server::watchdog_unlink(ClassState& s, Request* r) {
  if (s.cfg.watchdog_ns <= 0) return false;
  support::SpinLockGuard lock(s.wd_lock);
  // Already claimed by the sweep: the sweep nulled both links and advanced
  // wd_head past us.
  if (r->wd_prev == nullptr && r->wd_next == nullptr && s.wd_head != r) {
    return false;
  }
  if (r->wd_prev != nullptr) {
    r->wd_prev->wd_next = r->wd_next;
  } else {
    s.wd_head = r->wd_next;
  }
  if (r->wd_next != nullptr) r->wd_next->wd_prev = r->wd_prev;
  r->wd_prev = nullptr;
  r->wd_next = nullptr;
  return true;
}

void Server::watchdog_sweep() {
  const std::int64_t now = support::now_ns();
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    ClassState& s = *classes_[i].load(std::memory_order_acquire);
    if (s.cfg.watchdog_ns <= 0) continue;

    // Collect overdue entries under the lock, resolve them outside it: the
    // timeout callbacks are user code and must not run under a spinlock.
    // The overdue chain reuses wd_next (each node is unlinked first).
    Request* overdue = nullptr;
    {
      support::SpinLockGuard lock(s.wd_lock);
      Request* cur = s.wd_head;
      while (cur != nullptr) {
        Request* next = cur->wd_next;
        if (now - cur->issue_ns > s.cfg.watchdog_ns) {
          if (cur->wd_prev != nullptr) {
            cur->wd_prev->wd_next = cur->wd_next;
          } else {
            s.wd_head = cur->wd_next;
          }
          if (cur->wd_next != nullptr) cur->wd_next->wd_prev = cur->wd_prev;
          cur->wd_prev = nullptr;
          cur->wd_next = overdue;
          overdue = cur;
        }
        cur = next;
      }
    }

    while (overdue != nullptr) {
      Request* r = overdue;
      overdue = r->wd_next;
      r->wd_next = nullptr;
      resolve(r, Exit::TimedOut);
    }
  }
}

void Server::dispatch(Request* r, double* rotor) {
  ClassState& s = class_ref(r->cls);

  // Rung 2 of the ladder: drop a deterministic fraction of admitted
  // requests outright.  The rotor is dispatcher-local; the level is set by
  // the controller thread.
  rotor[r->cls] += s.perforation.load(std::memory_order_relaxed);
  if (rotor[r->cls] >= 1.0) {
    rotor[r->cls] -= 1.0;
    resolve(r, Exit::Perforated);
    return;
  }

  s.in_runtime.fetch_add(1, std::memory_order_relaxed);

  // Watchdog registration: the controller sweeps issued requests overdue
  // past cfg.watchdog_ns and resolves them as drops even when their body is
  // stuck or faulted.  The sweep and the body race on the node, so the
  // watchdog takes its own ownership ref (see the owners protocol).
  if (s.cfg.watchdog_ns > 0) {
    r->issue_ns = support::now_ns();
    r->owners.fetch_add(1, std::memory_order_relaxed);
    watchdog_link(s, r);
  }

  // The body's ownership reference rides inside the callables, not inside
  // run_body(): an injected crash (or a runtime-side drop) can unwind the
  // task before either lambda runs, so run_body() is not guaranteed to
  // execute.  The slab slot destroys its callables on retirement on every
  // path — normal completion, body exception, crash upstream of the
  // wrapper — which makes a by-value RAII capture the one release point
  // that cannot be skipped.  Copies (one per stored callable) each add a
  // reference; the original adopts the admission reference.
  struct BodyRef {
    Server* srv;
    Request* req;
    BodyRef(Server* s, Request* r) : srv(s), req(r) {}
    BodyRef(const BodyRef& o) : srv(o.srv), req(o.req) {
      req->owners.fetch_add(1, std::memory_order_relaxed);
    }
    BodyRef(BodyRef&& o) noexcept : srv(o.srv), req(o.req) {
      o.srv = nullptr;
    }
    BodyRef& operator=(const BodyRef&) = delete;
    BodyRef& operator=(BodyRef&&) = delete;
    ~BodyRef() {
      if (srv != nullptr) srv->request_unref(req, 1);
    }
  };
  BodyRef body_ref(this, r);  // adopts the admission reference

  auto approx_body = [this, r, body_ref] { run_body(r, /*accurate=*/false); };
  if (r->degraded) {
    // Degraded admission: both bodies are the cheap path, so the request is
    // served cheaply whatever the classifier decides.
    runtime_->spawn(task(approx_body)
                        .approx(approx_body)
                        .significance(0.0)
                        .group(s.group));
  } else {
    runtime_->spawn(
        task([this, r, body_ref] { run_body(r, /*accurate=*/true); })
            .approx(approx_body)
            .significance(r->job.significance)
            .group(s.group));
  }
}

void Server::run_body(Request* r, bool accurate) {
  const std::function<void()>& body =
      accurate ? r->job.accurate : r->job.approximate;
  // A drop-style class (no approximate body) answers empty.  A throwing
  // body resolves as a drop rather than stranding its in-flight slot
  // (which would hang drain/close and leak the node) or tearing down the
  // worker; serve-tier bodies are expected to capture their own failures,
  // this is the backstop.
  Exit how = Exit::Dropped;
  if (body) {
    try {
      body();
      how = accurate ? Exit::Accurate : Exit::Approximate;
    } catch (...) {
    }
  }
  resolve(r, how);
}

void Server::resolve(Request* r, Exit how) {
  ClassState& s = class_ref(r->cls);
  const bool issued = how <= Exit::TimedOut;
  // The ownership reference this exit drops, if any.  A request that never
  // reached the runtime still carries its admission reference (issue moves
  // it into the task's callables, see BodyRef).  The watchdog's reference
  // goes with whoever unlinks the registry entry: the sweep, before it
  // calls here, or a body, here — before resolving, so the sweep can no
  // longer collect it.  The body's own reference drops at slab retirement.
  const bool drop_ref =
      !issued || how == Exit::TimedOut || watchdog_unlink(s, r);
  // Exactly once: a body that finishes after the watchdog resolved it (or
  // the sweep, when the body won) loses here and leaves the accounting to
  // the winner.
  if (!r->resolved.exchange(true, std::memory_order_acq_rel)) {
    TenantState& t = tenant_ref(r->tenant);
    Cell& cell = t.cells[r->cls];
    // Every admitted request lands in exactly one of served_*, perforated
    // and expired.  Only exits that never ran a body fire a callback, so
    // the client still gets an answer.
    const std::function<void()>* callback = nullptr;
    switch (how) {
      case Exit::Accurate:
        cell.served_accurate.fetch_add(1, std::memory_order_relaxed);
        break;
      case Exit::Approximate:
        cell.served_approximate.fetch_add(1, std::memory_order_relaxed);
        break;
      case Exit::Dropped:
        cell.served_dropped.fetch_add(1, std::memory_order_relaxed);
        break;
      case Exit::TimedOut:
        cell.timed_out.fetch_add(1, std::memory_order_relaxed);
        cell.served_dropped.fetch_add(1, std::memory_order_relaxed);
        callback = &r->job.on_timeout;
        break;
      case Exit::Perforated:
        cell.perforated.fetch_add(1, std::memory_order_relaxed);
        callback = &r->job.on_drop;
        break;
      case Exit::Expired:
        cell.expired.fetch_add(1, std::memory_order_relaxed);
        callback = &r->job.on_expire;
        break;
      case Exit::Shutdown:
        cell.served_dropped.fetch_add(1, std::memory_order_relaxed);
        callback = &r->job.on_drop;
        break;
    }
    if (how <= Exit::Dropped) {
      // A body finished: its latency is a service time.  Timeouts record
      // none (the stuck body's eventual finish is not one), and neither do
      // perforated requests — their ~0 queue time would mask the overload
      // the controller is reacting to.
      const std::int64_t latency = support::now_ns() - r->arrival_ns;
      s.latency.record(latency > 0 ? static_cast<std::uint64_t>(latency) : 0);
    }
    if (callback != nullptr) {
      const auto& cb = *callback ? *callback : r->job.on_drop;
      if (cb) {
        try {
          cb();
        } catch (...) {
        }
      }
    }
    if (issued) s.in_runtime.fetch_sub(1, std::memory_order_relaxed);
    cell.in_flight.fetch_sub(1, std::memory_order_relaxed);
    t.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    if (issued) {
      // The freed window slot may unblock this class's EDF backlog.  The
      // fence is the completer's half of the dispatcher park: either the
      // parking dispatcher's re-check sees the release, or this sees it
      // parked.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (s.edf.size() > 0) wake_dispatcher();
    }
  }
  if (drop_ref) request_unref(r, 1);
}

void Server::controller_loop() {
  if (options_.thread_start_hook) options_.thread_start_hook("controller", 0);
  while (true) {
    {
      support::MutexLock lock(controller_mutex_);
      // TSA cannot see that the predicate runs with controller_mutex_ held
      // by wait_for; the surrounding scope holds the capability.
      controller_cv_.wait_for(
          lock.native(),
          std::chrono::duration<double, std::milli>(options_.epoch_ms),
          [this]() SIGRT_NO_THREAD_SAFETY_ANALYSIS { return controller_stop_; });
      if (controller_stop_) return;
    }
    controller_tick();
  }
}

void Server::controller_tick() {
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    ClassState& s = *classes_[i].load(std::memory_order_acquire);

    // Window = cumulative snapshot minus the previous epoch's snapshot.
    support::Histogram merged = s.latency.merged();
    support::Histogram window = merged;
    window.subtract(s.window_prev);
    s.window_prev = merged;

    QosObservation obs;
    obs.p99_ns = window.quantile(0.99);
    obs.completed = window.count();
    obs.in_flight = s.in_flight.load(std::memory_order_relaxed);

    const QosDecision d = s.qos.update(obs);
    // The non-master set_ratio path: a relaxed retarget of the group's
    // atomic ratio; workers classifying concurrently observe either value.
    runtime_->set_ratio(s.group, d.ratio);
    s.perforation.store(d.perforation, std::memory_order_relaxed);
  }
  // Piggyback the watchdog on the controller's epoch cadence: timeout
  // granularity is one epoch, which is the resolution the QoS loop already
  // commits to.
  watchdog_sweep();
}

void Server::drain() {
  {
    support::MutexLock lock(close_mutex_);
    if (drained_) return;
    drained_ = true;
  }
  // Phase 1: quiesce admission.  Every subsequent submit sheds at the top;
  // a racer already past that check either shows up in the in_flight
  // reads below or resolves itself as a shutdown drop (the handshake in
  // submit needs this store and those reads seq_cst).
  accepting_.store(false, std::memory_order_seq_cst);

  // Phase 2: serve the backlog.  Dispatchers and the controller are still
  // running, so the EDF heaps drain in deadline order, perforation and
  // expiry still apply, and the watchdog still resolves stuck requests —
  // nothing admitted is shed by the drain itself.  in_flight covers the
  // whole pipeline (heaped + in-runtime), so zero across every class means
  // the pipeline is empty.
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  for (;;) {
    bool quiescent = true;
    for (std::uint32_t i = 0; i < n && quiescent; ++i) {
      quiescent = classes_[i].load(std::memory_order_acquire)
                      ->in_flight.load(std::memory_order_seq_cst) == 0;
    }
    if (quiescent) break;
    wake_dispatcher();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  // Phase 3: stop the service threads, then let the runtime finish any
  // body the watchdog already resolved while it still ran.  Task-body
  // exceptions are the application's concern (request bodies are expected
  // to capture their own failures); swallow rather than throw from a
  // shutdown path.
  if (controller_.joinable()) {
    {
      support::MutexLock lock(controller_mutex_);
      controller_stop_ = true;
    }
    controller_cv_.notify_one();
    controller_.join();
  }
  stop_dispatchers();
  try {
    runtime_->wait_all();
  } catch (...) {
  }
}

void Server::close() {
  {
    support::MutexLock lock(close_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  drain();

  // in_flight hits zero in resolve(), but the last ownership reference
  // drops at task-slab retirement on a worker thread (BodyRef); wait for
  // every node to be back in the pool so destruction cannot race a
  // retiring task, and so callers observe the full shutdown contract
  // (every Job destroyed, every on_timeout guard dropped).
  while (pool_.outstanding() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

ClassReport Server::class_report(ClassId cls) const {
  const ClassState& s = class_ref(cls);
  ClassReport r;
  r.name = s.cfg.name;
  r.criticality = s.cfg.criticality;
  r.deadline_ms = s.cfg.qos.deadline_ns * 1e-6;
  r.ratio = runtime_->group(s.group).ratio();
  r.perforation = s.perforation.load(std::memory_order_relaxed);
  // The outcome counters are kept once, per (tenant, class) cell; the
  // class totals are the sum over the registered tenants' cells.
  const std::uint32_t tn = tenant_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < tn; ++i) {
    const Cell& c = tenants_[i].load(std::memory_order_acquire)->cells[cls];
    r.submitted += c.submitted.load(std::memory_order_relaxed);
    r.shed += c.shed.load(std::memory_order_relaxed);
    r.degraded += c.degraded.load(std::memory_order_relaxed);
    r.perforated += c.perforated.load(std::memory_order_relaxed);
    r.served_accurate += c.served_accurate.load(std::memory_order_relaxed);
    r.served_approximate +=
        c.served_approximate.load(std::memory_order_relaxed);
    r.served_dropped += c.served_dropped.load(std::memory_order_relaxed);
    r.expired += c.expired.load(std::memory_order_relaxed);
    r.timed_out += c.timed_out.load(std::memory_order_relaxed);
  }
  r.in_flight = s.in_flight.load(std::memory_order_relaxed);

  const support::Histogram h = s.latency.merged();
  r.p50_ms = h.quantile(0.5) * 1e-6;
  r.p99_ms = h.quantile(0.99) * 1e-6;
  r.mean_ms = h.mean() * 1e-6;
  return r;
}

TenantReport Server::tenant_report(TenantId tenant) const {
  const TenantState& t = tenant_ref(tenant);
  TenantReport out;
  out.id = tenant;
  out.name = t.cfg.name;
  out.in_flight = t.in_flight.load(std::memory_order_relaxed);
  out.max_in_flight = t.cfg.max_in_flight;
  out.fair_in_flight = t.cfg.fair_in_flight;
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  out.cells.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Cell& c = t.cells[i];
    TenantClassCell cell;
    cell.cls = i;
    cell.class_name = classes_[i].load(std::memory_order_acquire)->cfg.name;
    cell.submitted = c.submitted.load(std::memory_order_relaxed);
    cell.shed = c.shed.load(std::memory_order_relaxed);
    cell.degraded = c.degraded.load(std::memory_order_relaxed);
    cell.perforated = c.perforated.load(std::memory_order_relaxed);
    cell.served_accurate = c.served_accurate.load(std::memory_order_relaxed);
    cell.served_approximate =
        c.served_approximate.load(std::memory_order_relaxed);
    cell.served_dropped = c.served_dropped.load(std::memory_order_relaxed);
    cell.expired = c.expired.load(std::memory_order_relaxed);
    cell.timed_out = c.timed_out.load(std::memory_order_relaxed);
    cell.in_flight = c.in_flight.load(std::memory_order_relaxed);
    out.cells.push_back(std::move(cell));
  }
  return out;
}

ServerStats Server::stats() const {
  ServerStats out;
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  out.classes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.classes.push_back(class_report(i));
  const std::uint32_t tn = tenant_count_.load(std::memory_order_acquire);
  out.tenants.reserve(tn);
  for (std::uint32_t i = 0; i < tn; ++i) out.tenants.push_back(tenant_report(i));
  return out;
}

void Server::reset_latency_stats() {
  const std::uint32_t n = class_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    classes_[i].load(std::memory_order_acquire)->latency.reset();
  }
}

}  // namespace sigrt::serve
