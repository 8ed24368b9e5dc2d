// Serving-layer tests: QoS controller convergence, admission shed/degrade,
// the closed loop between open-loop load and the group ratio() knob, and
// the any-thread set_ratio contract under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/sigrt.hpp"
#include "serve/serve.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

// The closed-loop test asserts wall-clock percentiles; ThreadSanitizer's
// instrumentation starves the 1-CPU CI box enough that only the direction
// of the control loop is asserted there, not the tight latency bound.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIGRT_TSAN 1
#endif
#endif
#if !defined(SIGRT_TSAN) && defined(__SANITIZE_THREAD__)
#define SIGRT_TSAN 1
#endif

namespace {

using namespace sigrt;
using namespace sigrt::serve;

#ifdef SIGRT_TSAN
constexpr bool kTimingStrict = false;
#else
constexpr bool kTimingStrict = true;
#endif

/// Wall-clock spin: occupies a worker for `ns` of wall time regardless of
/// CPU share, making service times deterministic on the 1-CPU CI box.
void spin_for(std::int64_t ns) {
  const std::int64_t end = support::now_ns() + ns;
  while (support::now_ns() < end) {
  }
}

// --- QosController: pure-logic convergence -------------------------------

QosOptions controller_options() {
  QosOptions o;
  o.deadline_ns = 10e6;
  o.quality_floor = 0.1;
  o.backlog_high = 256;
  o.backlog_low = 32;
  return o;
}

TEST(QosController, ConvergesToTheFloorUnderSteadyOverloadAndStaysThere) {
  QosController c(controller_options());
  QosDecision d{};
  const QosObservation overload{/*p99_ns=*/50e6, /*completed=*/100,
                                /*in_flight=*/10};
  for (int i = 0; i < 40; ++i) d = c.update(overload);
  EXPECT_DOUBLE_EQ(d.ratio, 0.1);
  EXPECT_GT(c.violations(), 0u);
  // Settled: further overload epochs hold the ratio at the floor exactly.
  for (int i = 0; i < 10; ++i) d = c.update(overload);
  EXPECT_DOUBLE_EQ(d.ratio, 0.1);
}

TEST(QosController, RecoversToFullQualityUnderLightLoad) {
  QosController c(controller_options());
  for (int i = 0; i < 40; ++i) c.update({50e6, 100, 10});
  ASSERT_DOUBLE_EQ(c.ratio(), 0.1);
  QosDecision d{};
  const QosObservation calm{/*p99_ns=*/1e6, /*completed=*/4, /*in_flight=*/0};
  for (int i = 0; i < 64; ++i) d = c.update(calm);
  EXPECT_DOUBLE_EQ(d.ratio, 1.0);
  EXPECT_DOUBLE_EQ(d.perforation, 0.0);
}

TEST(QosController, BacklogAloneIsAViolationEvenWithoutLatencySamples) {
  QosController c(controller_options());
  const QosDecision d = c.update({/*p99_ns=*/0.0, /*completed=*/0,
                                  /*in_flight=*/1000});
  EXPECT_LT(d.ratio, 1.0);
}

TEST(QosController, FewSlowSamplesCannotCollapseTheRatio) {
  QosController c(controller_options());
  // Two stragglers over deadline at idle: below kMinSamples, so neither a
  // violation nor calm (p99 above target) — the controller holds.
  for (int i = 0; i < 20; ++i) c.update({80e6, 2, 0});
  EXPECT_DOUBLE_EQ(c.ratio(), 1.0);
}

TEST(QosController, HoldsInsideTheHysteresisBand) {
  QosController c(controller_options());
  // p99 between target (5 ms) and deadline (10 ms), backlog between the
  // watermarks: neither violation nor calm.
  for (int i = 0; i < 20; ++i) c.update({8e6, 100, 100});
  EXPECT_DOUBLE_EQ(c.ratio(), 1.0);
  EXPECT_EQ(c.violations(), 0u);
}

TEST(QosController, LadderPerforatesOnlyAtTheFloorAndUnwindsInReverse) {
  QosController c(controller_options());
  const QosObservation overload{50e6, 100, 10};
  // Rung 1 first: perforation stays untouched until the ratio bottoms out.
  while (c.ratio() > c.options().quality_floor) c.update(overload);
  EXPECT_DOUBLE_EQ(c.perforation(), 0.0);
  // Rung 2: continued violation at the floor escalates perforation...
  c.update(overload);
  EXPECT_DOUBLE_EQ(c.perforation(), QosController::kPerforateStep);
  for (int i = 0; i < 40; ++i) c.update(overload);
  // ...up to the cap, never beyond.
  EXPECT_DOUBLE_EQ(c.perforation(), QosController::kMaxPerforation);
  ASSERT_DOUBLE_EQ(c.ratio(), 0.1);

  // Recovery unwinds the ladder in reverse: perforation drains to zero
  // before the ratio leaves the floor.
  const QosObservation calm{1e6, 4, 0};
  QosDecision d = c.update(calm);
  EXPECT_DOUBLE_EQ(d.ratio, 0.1);
  while (c.perforation() > 0.0) {
    d = c.update(calm);
    EXPECT_DOUBLE_EQ(d.ratio, 0.1);
  }
  d = c.update(calm);
  EXPECT_GT(d.ratio, 0.1);
}

// --- Admission control ---------------------------------------------------

TEST(Admission, ShedsExactlyAboveMaxInFlight) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.epoch_ms = 0.0;  // no controller: admission behaves deterministically
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "gated";
  cfg.max_in_flight = 32;
  const ClassId cls = srv.register_class(cfg);

  std::atomic<bool> gate{false};
  const auto gated = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  int shed = 0;
  for (int i = 0; i < 96; ++i) {
    if (srv.submit(cls, {gated, gated, /*significance=*/1.0}) == Admission::Shed) {
      ++shed;
    }
  }
  // Nothing can complete while the gate is closed, so admission is exact:
  // 32 in flight, 64 shed.
  EXPECT_EQ(shed, 64);
  gate.store(true, std::memory_order_release);
  srv.close();

  const ClassReport r = srv.class_report(cls);
  EXPECT_EQ(r.shed, 64u);
  EXPECT_EQ(r.submitted, 32u);
  EXPECT_EQ(r.served(), 32u);
  EXPECT_EQ(r.served_accurate, 32u);  // significance 1.0 pins accurate
  EXPECT_EQ(r.in_flight, 0u);
}

TEST(Admission, DegradeWatermarkServesTheCheapBody) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.epoch_ms = 0.0;
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "watermarked";
  cfg.max_in_flight = 8;
  cfg.degrade_in_flight = 4;
  const ClassId cls = srv.register_class(cfg);

  std::atomic<bool> gate{false};
  const auto wait_gate = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  int admitted = 0, degraded = 0;
  for (int i = 0; i < 8; ++i) {
    switch (srv.submit(cls, {wait_gate, wait_gate, /*significance=*/1.0})) {
      case Admission::Admitted: ++admitted; break;
      case Admission::Degraded: ++degraded; break;
      case Admission::Shed: break;
    }
  }
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(degraded, 4);
  gate.store(true, std::memory_order_release);
  srv.close();

  const ClassReport r = srv.class_report(cls);
  EXPECT_EQ(r.degraded, 4u);
  EXPECT_EQ(r.served_approximate, 4u);  // degraded requests ran the cheap body
  EXPECT_EQ(r.served_accurate, 4u);
  EXPECT_EQ(r.in_flight, 0u);
}

TEST(Admission, RegistrationBeyondCapacityThrows) {
  ServerOptions so;
  so.runtime.workers = 0;
  so.epoch_ms = 0.0;
  Server srv(so);
  for (std::size_t i = 0; i < Server::kMaxClasses; ++i) {
    RequestClassConfig cfg;
    cfg.name = "c" + std::to_string(i);
    srv.register_class(cfg);
  }
  RequestClassConfig extra;
  extra.name = "one-too-many";
  EXPECT_THROW(srv.register_class(extra), std::length_error);
  EXPECT_THROW(srv.submit(Server::kMaxClasses + 5, {[] {}}), std::out_of_range);
}

// --- The closed loop -----------------------------------------------------

constexpr std::int64_t kAccurateNs = 3'000'000;  // 3 ms of wall occupancy
constexpr std::int64_t kApproxNs = 100'000;      // 0.1 ms

/// Open-loop Poisson arrivals at `rate_hz` for `seconds`, significance
/// cycling (i%9+1)/10 as in the paper's Listing 1.
void poisson_load(Server& srv, ClassId cls, double rate_hz, double seconds,
                  std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::int64_t next = support::now_ns();
  const std::int64_t end = next + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t i = 0;
  while (next < end) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(next))));
    srv.submit(cls, {[] { spin_for(kAccurateNs); }, [] { spin_for(kApproxNs); },
                     static_cast<double>(i % 9 + 1) / 10.0});
    next += static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) * 1e9 /
                                      rate_hz);
    ++i;
  }
}

TEST(ClosedLoop, OverloadDegradesQualityToMeetTheDeadlineAndRecovers) {
  ServerOptions so;
  so.runtime.workers = 1;  // accurate capacity ~333 req/s (3 ms each)
  so.epoch_ms = 20.0;
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "spin";
  cfg.qos.deadline_ns = 50e6;  // p99 objective: 50 ms
  cfg.qos.quality_floor = 0.05;
  cfg.qos.decrease_factor = 0.5;
  cfg.qos.increase_step = 0.02;
  cfg.qos.target_fraction = 0.3;
  // Tight backlog watermarks make queue depth — an instantaneous signal,
  // unlike the one-epoch-lagged p99 estimate — the primary regulator:
  // twelve queued requests cost at most ~36 ms of residence (all-accurate
  // worst case), so the controller backs off well before the deadline and
  // latency violations stay in the tail instead of defining it.
  cfg.qos.backlog_high = 12;
  cfg.qos.backlog_low = 4;
  cfg.max_in_flight = 512;
  const ClassId cls = srv.register_class(cfg);

  // Phase A: ~2.4x overload (800 req/s against ~333/s accurate capacity).
  // Warm up until the controller has reacted, then measure a steady-state
  // window.
  poisson_load(srv, cls, 800.0, 1.0, /*seed=*/1);
  EXPECT_LT(srv.class_report(cls).ratio, 0.95);

  srv.reset_latency_stats();
  poisson_load(srv, cls, 800.0, 1.0, /*seed=*/2);
  const ClassReport overload = srv.class_report(cls);
  // The tentpole acceptance pair: quality got traded away...
  EXPECT_LT(overload.ratio, 0.9);
  EXPECT_LT(overload.achieved_ratio(), 0.9);
  // ...and the deadline held (p99 within 1.2x the class deadline).
  if (kTimingStrict) {
    EXPECT_LE(overload.p99_ms, 1.2 * overload.deadline_ms);
  } else {
    EXPECT_LE(overload.p99_ms, 5.0 * overload.deadline_ms);
  }

  // Phase B: light load (~0.3 utilization fully accurate); the controller
  // walks the ratio back toward full quality.
  poisson_load(srv, cls, 100.0, 1.4, /*seed=*/3);
  const ClassReport calm = srv.class_report(cls);
  EXPECT_GE(calm.ratio, 0.9);

  srv.close();
  const ClassReport fin = srv.class_report(cls);
  // Conservation: every admitted request was served or perforated.
  EXPECT_EQ(fin.submitted, fin.served() + fin.perforated);
  EXPECT_EQ(fin.in_flight, 0u);
}

// --- Any-thread set_ratio + multi-producer stress (TSan targets) ---------

TEST(SetRatioContract, ConcurrentRetargetAndSpawnIsRaceFree) {
  RuntimeConfig c;
  c.workers = 2;
  c.policy = PolicyKind::LQH;
  c.record_task_log = false;
  Runtime rt(c);
  const GroupId g = rt.create_group("stress", 0.5);

  std::atomic<bool> stop{false};
  std::thread tuner([&] {
    support::Xoshiro256 rng(7);
    while (!stop.load(std::memory_order_acquire)) {
      rt.set_ratio(g, rng.uniform());
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)rt.group_report(g);
      (void)rt.stats();
      std::this_thread::yield();
    }
  });

  constexpr int kTasks = 4000;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn(task([&ran] { ran.fetch_add(1, std::memory_order_relaxed); })
                 .approx([&ran] { ran.fetch_add(1, std::memory_order_relaxed); })
                 .significance(static_cast<double>(i % 9 + 1) / 10.0)
                 .group(g));
  }
  rt.wait_group(g);
  stop.store(true, std::memory_order_release);
  tuner.join();
  reader.join();

  EXPECT_EQ(ran.load(), kTasks);  // exactly one body per task, whatever the ratio
  const GroupReport rep = rt.group_report(g);
  EXPECT_EQ(rep.spawned, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rep.accurate + rep.approximate + rep.dropped,
            static_cast<std::uint64_t>(kTasks));
}

TEST(ServerStress, ConcurrentSubmittersAreAccountedExactly) {
  ServerOptions so;
  so.runtime.workers = 2;
  so.epoch_ms = 5.0;
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "mixed";
  cfg.qos.deadline_ns = 10e6;
  cfg.qos.quality_floor = 0.0;
  cfg.max_in_flight = 256;
  const ClassId cls = srv.register_class(cfg);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 300;
  std::atomic<std::uint64_t> accepted{0}, shed{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Admission a =
            srv.submit(cls, {[] { spin_for(10'000); }, [] { spin_for(1'000); },
                             static_cast<double>((t + i) % 9 + 1) / 10.0});
        if (a == Admission::Shed) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  srv.close();

  const ClassReport r = srv.class_report(cls);
  EXPECT_EQ(r.submitted, accepted.load());
  EXPECT_EQ(r.shed, shed.load());
  EXPECT_EQ(r.submitted, r.served() + r.perforated);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.submitted + r.shed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  if (r.served() > 0) EXPECT_GT(r.p50_ms, 0.0);
}

// Sharded dispatcher tier: N spawner threads drain the admission queue
// concurrently (the runtime's any-thread spawn contract).  Accounting must
// stay exact — every admitted request served exactly once, nothing leaked.
TEST(ServerStress, ShardedDispatchersServeEveryAdmittedRequest) {
  ServerOptions so;
  so.runtime.workers = 2;
  so.epoch_ms = 0.0;  // deterministic: no controller retargeting
  so.dispatcher_threads = 3;
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "sharded";
  cfg.qos.deadline_ns = 10e6;
  cfg.max_in_flight = 4096;
  const ClassId cls = srv.register_class(cfg);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 400;
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const Admission a = srv.submit(
            cls, {[&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                  [&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                  0.5});
        EXPECT_NE(a, Admission::Shed);  // bound is far above the load
      }
    });
  }
  for (auto& p : producers) p.join();
  srv.close();

  const ClassReport r = srv.class_report(cls);
  EXPECT_EQ(r.submitted, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(r.served(), r.submitted);  // no perforation without a controller
  EXPECT_EQ(ran.load(), r.submitted);  // each request's body ran exactly once
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_EQ(r.shed, 0u);
}

// An inline runtime (workers == 0) executes on the enqueuing thread over
// an unsynchronized queue — the server must clamp the dispatcher tier to
// one thread there, and still serve everything exactly once.
TEST(ServerStress, InlineRuntimeClampsDispatcherSharding) {
  ServerOptions so;
  so.runtime.workers = 0;
  so.epoch_ms = 0.0;
  so.dispatcher_threads = 3;  // must be clamped to 1 internally
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "inline";
  cfg.max_in_flight = 4096;
  const ClassId cls = srv.register_class(cfg);

  std::atomic<std::uint64_t> ran{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        (void)srv.submit(
            cls, {[&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                  nullptr, 1.0});
      }
    });
  }
  for (auto& p : producers) p.join();
  srv.close();

  const ClassReport r = srv.class_report(cls);
  EXPECT_EQ(r.served(), r.submitted);
  EXPECT_EQ(ran.load(), r.submitted);
  EXPECT_EQ(r.in_flight, 0u);
}

// --- Tenants: per-tenant x per-class admission ---------------------------

TEST(Tenants, HardQuotaShedsExactlyPerTenant) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.epoch_ms = 0.0;
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "work";
  cfg.max_in_flight = 1024;  // the class bound never binds here
  const ClassId cls = srv.register_class(cfg);
  const TenantId a = srv.register_tenant({.name = "a", .max_in_flight = 8});
  const TenantId b = srv.register_tenant({.name = "b", .max_in_flight = 16});

  std::atomic<bool> gate{false};
  const auto gated = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  int shed_a = 0, shed_b = 0;
  for (int i = 0; i < 32; ++i) {
    if (srv.submit(cls, a, {gated, gated, 1.0}) == Admission::Shed) ++shed_a;
    if (srv.submit(cls, b, {gated, gated, 1.0}) == Admission::Shed) ++shed_b;
  }
  // Nothing completes while the gate is closed, so each tenant's quota
  // gives an exact oracle: a admits 8 of 32, b admits 16 of 32.
  EXPECT_EQ(shed_a, 24);
  EXPECT_EQ(shed_b, 16);
  gate.store(true, std::memory_order_release);
  srv.close();

  const TenantReport ra = srv.tenant_report(a);
  const TenantReport rb = srv.tenant_report(b);
  ASSERT_EQ(ra.cells.size(), 1u);
  EXPECT_EQ(ra.cells[cls].submitted, 8u);
  EXPECT_EQ(ra.cells[cls].shed, 24u);
  EXPECT_EQ(ra.cells[cls].served(), 8u);
  EXPECT_EQ(ra.cells[cls].served_accurate, 8u);
  EXPECT_EQ(ra.in_flight, 0u);
  EXPECT_EQ(rb.cells[cls].submitted, 16u);
  EXPECT_EQ(rb.cells[cls].shed, 16u);
  EXPECT_EQ(rb.in_flight, 0u);

  // The class-level counters are the sum over tenants; the default tenant
  // saw no traffic.
  const ClassReport rc = srv.class_report(cls);
  EXPECT_EQ(rc.submitted, 24u);
  EXPECT_EQ(rc.shed, 40u);
  EXPECT_EQ(rc.served(), 24u);
  EXPECT_EQ(srv.tenant_report(kDefaultTenant).cells[cls].submitted, 0u);
}

TEST(Tenants, FairnessWatermarkTriagesByCriticality) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.epoch_ms = 0.0;
  Server srv(so);

  RequestClassConfig crit_cfg;
  crit_cfg.name = "crit";
  crit_cfg.criticality = Criticality::Critical;
  crit_cfg.max_in_flight = 1024;
  RequestClassConfig deg_cfg;
  deg_cfg.name = "deg";
  deg_cfg.criticality = Criticality::Degradable;
  deg_cfg.max_in_flight = 1024;
  RequestClassConfig be_cfg;
  be_cfg.name = "be";
  be_cfg.criticality = Criticality::BestEffort;
  be_cfg.max_in_flight = 1024;
  const ClassId crit = srv.register_class(crit_cfg);
  const ClassId deg = srv.register_class(deg_cfg);
  const ClassId be = srv.register_class(be_cfg);

  const TenantId t =
      srv.register_tenant({.name = "t", .max_in_flight = 8, .fair_in_flight = 4});

  std::atomic<bool> gate{false};
  const auto gated = [&gate] {
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  const auto sub = [&](ClassId c) { return srv.submit(c, t, {gated, gated, 1.0}); };

  // Under the fairness share: everything admits at full quality.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sub(crit), Admission::Admitted);
  // Over the share (in-flight 4): BestEffort sheds, Degradable degrades,
  // Critical still admits.
  EXPECT_EQ(sub(be), Admission::Shed);
  EXPECT_EQ(sub(deg), Admission::Degraded);   // in-flight -> 5
  EXPECT_EQ(sub(crit), Admission::Admitted);  // -> 6
  EXPECT_EQ(sub(crit), Admission::Admitted);  // -> 7
  EXPECT_EQ(sub(crit), Admission::Admitted);  // -> 8 == hard quota
  // At the hard quota even Critical sheds.
  EXPECT_EQ(sub(crit), Admission::Shed);

  gate.store(true, std::memory_order_release);
  srv.close();

  const TenantReport rt = srv.tenant_report(t);
  EXPECT_EQ(rt.cells[crit].submitted, 7u);
  EXPECT_EQ(rt.cells[crit].shed, 1u);
  EXPECT_EQ(rt.cells[deg].submitted, 1u);
  EXPECT_EQ(rt.cells[deg].degraded, 1u);
  EXPECT_EQ(rt.cells[deg].served_approximate, 1u);
  EXPECT_EQ(rt.cells[be].shed, 1u);
  EXPECT_EQ(rt.cells[be].submitted, 0u);
  EXPECT_EQ(rt.in_flight, 0u);
}

TEST(ServerStress, TenantAccountingConservedUnderConcurrency) {
  ServerOptions so;
  so.runtime.workers = 2;
  so.dispatcher_threads = 2;
  so.epoch_ms = 0.0;  // no perforation: submitted == served exactly
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "c0";
  cfg.max_in_flight = 4096;
  const ClassId c0 = srv.register_class(cfg);
  cfg.name = "c1";
  const ClassId c1 = srv.register_class(cfg);
  const TenantId t1 = srv.register_tenant({.name = "t1", .max_in_flight = 64});
  const TenantId t2 = srv.register_tenant({.name = "t2", .max_in_flight = 64});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<std::uint64_t> ran{0};
  // attempts[tenant][cls] tallied by the submitters themselves — the oracle
  // the server's cells must reconcile against.
  std::atomic<std::uint64_t> attempts[3][2] = {};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    producers.emplace_back([&, th] {
      support::SplitMix64 rng(0x9E3779B9u * (th + 1));
      for (int i = 0; i < kPerThread; ++i) {
        const TenantId t = (rng.next() & 1) != 0 ? t1 : t2;
        const ClassId c = (rng.next() & 1) != 0 ? c1 : c0;
        attempts[t][c].fetch_add(1, std::memory_order_relaxed);
        (void)srv.submit(
            c, t,
            {[&ran] { ran.fetch_add(1, std::memory_order_relaxed); }, nullptr,
             1.0});
      }
    });
  }
  for (auto& p : producers) p.join();
  srv.close();

  std::uint64_t class_submitted = 0, class_shed = 0;
  for (const ClassId c : {c0, c1}) {
    const ClassReport r = srv.class_report(c);
    class_submitted += r.submitted;
    class_shed += r.shed;
    EXPECT_EQ(r.served(), r.submitted);
    EXPECT_EQ(r.in_flight, 0u);
  }
  EXPECT_EQ(ran.load(), class_submitted);

  // Per-cell conservation: every attempt is either admitted or shed, and
  // every admitted request was served (no perforation, no drops).
  std::uint64_t cell_submitted = 0, cell_shed = 0;
  for (const TenantId t : {t1, t2}) {
    const TenantReport rt = srv.tenant_report(t);
    EXPECT_EQ(rt.in_flight, 0u);
    for (const ClassId c : {c0, c1}) {
      const TenantClassCell& cell = rt.cells[c];
      EXPECT_EQ(cell.submitted + cell.shed,
                attempts[t][c].load(std::memory_order_relaxed))
          << "tenant " << t << " class " << c;
      EXPECT_EQ(cell.served(), cell.submitted);
      EXPECT_EQ(cell.in_flight, 0u);
      cell_submitted += cell.submitted;
      cell_shed += cell.shed;
    }
  }
  // The class totals are exactly the tenant cells summed.
  EXPECT_EQ(cell_submitted, class_submitted);
  EXPECT_EQ(cell_shed, class_shed);
}

// --- EDF dispatch --------------------------------------------------------

TEST(Edf, IssuesByDeadlineNotArrivalOrder) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.dispatcher_threads = 1;
  so.epoch_ms = 0.0;
  so.edf_window = 1;  // serialize issue: execution order == EDF order
  Server srv(so);

  RequestClassConfig cfg;
  cfg.name = "edf";
  cfg.max_in_flight = 64;
  const ClassId cls = srv.register_class(cfg);

  // Plug the single dispatch-window slot with a gated request so the rest
  // pile up in the EDF heap while we submit them.
  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  Job plug;
  plug.accurate = [&] {
    entered.store(true, std::memory_order_release);
    while (!gate.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  plug.significance = 1.0;
  ASSERT_EQ(srv.submit(cls, std::move(plug)), Admission::Admitted);
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // Later submissions get tighter budgets: EDF must run them in reverse
  // submission order (budget gaps of 10 ms dwarf the submit jitter).
  std::mutex order_mutex;
  std::vector<int> order;
  constexpr int kN = 6;
  for (int i = 0; i < kN; ++i) {
    Job j;
    j.accurate = [&, i] {
      std::lock_guard lock(order_mutex);
      order.push_back(i);
    };
    j.significance = 1.0;
    j.deadline_ns = static_cast<std::int64_t>(kN + 1 - i) * 10'000'000;
    ASSERT_EQ(srv.submit(cls, std::move(j)), Admission::Admitted);
  }

  gate.store(true, std::memory_order_release);
  srv.close();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], kN - 1 - i) << "slot " << i;
}

// --- Dispatcher wakes and the one exit path -----------------------------

/// Polls `done` for up to 10 s; true when it held in time.  The dispatcher
/// park has no timeout, so a lost wake shows up as this returning false,
/// never as a hang: close() (drain's loop wakes the dispatchers) still
/// finishes the test.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// A request pinned accurate (significance 1.0) with no approximate body.
Job accurate_job(std::function<void()> body) {
  Job job;
  job.accurate = std::move(body);
  job.significance = 1.0;
  return job;
}

// The submit-side wake: a dispatcher parked on an idle server must be woken
// by the submit itself — no controller, no drain, no completion around.
TEST(DispatcherWake, SubmitWakesTheParkedDispatcher) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.dispatcher_threads = 1;
  so.epoch_ms = 0.0;
  Server srv(so);
  RequestClassConfig cfg;
  cfg.name = "idle";
  const ClassId cls = srv.register_class(cfg);
  // Nothing to issue: the dispatcher parks well within this.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::atomic<bool> ran{false};
  ASSERT_EQ(srv.submit(cls, accurate_job([&ran] { ran.store(true); })),
            Admission::Admitted);
  EXPECT_TRUE(eventually([&] { return ran.load(); }))
      << "the submit did not wake the parked dispatcher";
  srv.close();
  EXPECT_EQ(srv.class_report(cls).served_accurate, 1u);
}

// The completion-side wake: with a dispatch window of 1, a request queued
// behind a running one is issued only when that one's exit frees the slot
// and wakes the dispatcher (which re-parked after the second submit found
// the window full).
TEST(DispatcherWake, CompletionReopensTheWindowAndWakesTheDispatcher) {
  ServerOptions so;
  so.runtime.workers = 2;
  so.dispatcher_threads = 1;
  so.epoch_ms = 0.0;
  so.edf_window = 1;
  Server srv(so);
  RequestClassConfig cfg;
  cfg.name = "window";
  const ClassId cls = srv.register_class(cfg);

  std::atomic<bool> gate{false}, entered{false}, second_ran{false};
  ASSERT_EQ(srv.submit(cls, accurate_job([&] {
              entered.store(true);
              while (!gate.load()) {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
              }
            })),
            Admission::Admitted);
  ASSERT_TRUE(eventually([&] { return entered.load(); }));
  ASSERT_EQ(srv.submit(cls, accurate_job([&] { second_ran.store(true); })),
            Admission::Admitted);
  // The second request waits in the heap; let the dispatcher re-park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_ran.load());

  gate.store(true);
  EXPECT_TRUE(eventually([&] { return second_ran.load(); }))
      << "the completion did not wake the dispatcher for the backlog";
  srv.close();
  EXPECT_EQ(srv.class_report(cls).served_accurate, 2u);
}

// A body that throws leaves through the same exit as any other: it counts
// as served_dropped and releases every in-flight reservation it held.
TEST(ExitPath, ThrowingBodyResolvesAsDroppedAndReleasesEveryReservation) {
  ServerOptions so;
  so.runtime.workers = 1;
  so.epoch_ms = 0.0;
  Server srv(so);
  RequestClassConfig cfg;
  cfg.name = "throws";
  const ClassId cls = srv.register_class(cfg);
  const TenantId t = srv.register_tenant({.name = "t", .max_in_flight = 4});

  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(srv.submit(cls, t, accurate_job([] {
                throw std::runtime_error("body failed");
              })),
              Admission::Admitted);
  }
  srv.close();

  const ClassReport r = srv.class_report(cls);
  EXPECT_EQ(r.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(r.served_dropped, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(r.served(), r.submitted);
  EXPECT_EQ(r.in_flight, 0u);
  const TenantReport tr = srv.tenant_report(t);
  EXPECT_EQ(tr.in_flight, 0u);
  EXPECT_EQ(tr.cells[cls].in_flight, 0u);
  EXPECT_EQ(tr.cells[cls].served_dropped, static_cast<std::uint64_t>(kRequests));
}

// Submissions racing close(): one that passed the intake check before the
// flip is admitted, so it must resolve (served, or a shutdown drop that
// fires on_drop) and must not also count as shed.  Both identities hold
// per (tenant, class) cell: attempts == submitted + shed, and submitted ==
// served + perforated + expired.
TEST(ServerStress, SubmittersRacingCloseKeepBothIdentitiesPerCell) {
  constexpr int kRounds = 20;
  constexpr int kThreads = 3;
  for (int round = 0; round < kRounds; ++round) {
    ServerOptions so;
    so.runtime.workers = 2;
    so.epoch_ms = 0.0;  // no perforation: every admitted request is served
    Server srv(so);
    RequestClassConfig cfg;
    cfg.name = "c0";
    const ClassId c0 = srv.register_class(cfg);
    cfg.name = "c1";
    const ClassId c1 = srv.register_class(cfg);
    const TenantId t1 = srv.register_tenant({.name = "t1"});

    std::atomic<std::uint64_t> attempts[2][2] = {};
    std::atomic<std::uint64_t> bodies{0}, drops{0};
    std::atomic<bool> closed{false};
    std::vector<std::thread> producers;
    for (int th = 0; th < kThreads; ++th) {
      producers.emplace_back([&, th] {
        support::SplitMix64 rng(0xC105Eu * (round * kThreads + th + 1));
        // Keep submitting through the close and a little past it; late
        // submissions shed at the intake check.
        while (!closed.load(std::memory_order_acquire)) {
          const TenantId t = (rng.next() & 1) != 0 ? t1 : kDefaultTenant;
          const ClassId c = (rng.next() & 1) != 0 ? c1 : c0;
          attempts[t][c].fetch_add(1, std::memory_order_relaxed);
          Job job = accurate_job([&bodies] { bodies.fetch_add(1); });
          job.on_drop = [&drops] { drops.fetch_add(1); };
          (void)srv.submit(c, t, std::move(job));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 5));
    srv.close();
    closed.store(true, std::memory_order_release);
    for (auto& p : producers) p.join();

    std::uint64_t served_bodies = 0, dropped = 0;
    for (const TenantId t : {kDefaultTenant, t1}) {
      const TenantReport rt = srv.tenant_report(t);
      EXPECT_EQ(rt.in_flight, 0u);
      for (const ClassId c : {c0, c1}) {
        const TenantClassCell& cell = rt.cells[c];
        EXPECT_EQ(cell.submitted + cell.shed,
                  attempts[t][c].load(std::memory_order_relaxed))
            << "round " << round << " tenant " << t << " class " << c;
        EXPECT_EQ(cell.submitted,
                  cell.served() + cell.perforated + cell.expired)
            << "round " << round << " tenant " << t << " class " << c;
        EXPECT_EQ(cell.in_flight, 0u);
        served_bodies += cell.served_accurate + cell.served_approximate;
        dropped += cell.served_dropped;
      }
    }
    // Each admitted request ran one body or fired on_drop, never both.
    EXPECT_EQ(bodies.load(), served_bodies) << "round " << round;
    EXPECT_EQ(drops.load(), dropped) << "round " << round;
  }
}

// --- Isolation acceptance ------------------------------------------------

// Overloading tenant "flood" must not starve tenant "vip"'s Critical
// class: the flood's fairness watermark degrades/sheds its own traffic and
// its hard quota bounds how much queueing it can inflict on the shared
// runtime, so vip's p99 stays within its (generous) budget.
TEST(Isolation, FloodingTenantLeavesOtherTenantsCriticalP99Intact) {
  ServerOptions so;
  so.runtime.workers = 2;
  so.epoch_ms = 0.0;  // isolation must come from admission, not the ladder
  Server srv(so);

  RequestClassConfig vip_cfg;
  vip_cfg.name = "interactive";
  vip_cfg.criticality = Criticality::Critical;
  vip_cfg.qos.deadline_ns = 20e6;
  vip_cfg.max_in_flight = 256;
  RequestClassConfig batch_cfg;
  batch_cfg.name = "batch";
  batch_cfg.criticality = Criticality::Degradable;
  batch_cfg.max_in_flight = 256;
  const ClassId vip_cls = srv.register_class(vip_cfg);
  const ClassId batch_cls = srv.register_class(batch_cfg);

  const TenantId flood =
      srv.register_tenant({.name = "flood", .max_in_flight = 8, .fair_in_flight = 2});
  const TenantId vip = srv.register_tenant({.name = "vip"});

  std::atomic<bool> stop{false};
  std::thread flooder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)srv.submit(batch_cls, flood,
                       {[] { spin_for(500'000); }, [] { spin_for(50'000); },
                        0.7});
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  constexpr int kVipRequests = 50;
  for (int i = 0; i < kVipRequests; ++i) {
    ASSERT_EQ(srv.submit(vip_cls, vip,
                         {[] { spin_for(100'000); }, [] { spin_for(20'000); },
                          1.0}),
              Admission::Admitted);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  flooder.join();
  srv.close();

  const ClassReport rv = srv.class_report(vip_cls);
  EXPECT_EQ(rv.shed, 0u);
  EXPECT_EQ(rv.served(), static_cast<std::uint64_t>(kVipRequests));
  EXPECT_EQ(rv.served_accurate, static_cast<std::uint64_t>(kVipRequests));
  if (kTimingStrict) {
    EXPECT_LT(rv.p99_ms, 20.0) << "vip p99 blew its budget under flood";
  }

  // The flood actually overloaded itself: its own traffic degraded or shed.
  const TenantReport rf = srv.tenant_report(flood);
  EXPECT_GT(rf.cells[batch_cls].degraded + rf.cells[batch_cls].shed, 0u);
  EXPECT_EQ(srv.tenant_report(vip).cells[vip_cls].shed, 0u);
}

}  // namespace
