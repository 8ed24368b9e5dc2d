// Seeded chaos suite for the deterministic fault-injection framework and
// the significance-aware resilience it forces:
//
//   * determinism — the same FaultPlan replayed over the same task ids
//     produces a bit-identical trace (fire counts + commutative hash), a
//     different seed a different one;
//   * the redo oracle — accurate tasks with check()/max_redos survive
//     injected crashes and silent corruption on unreliable workers with
//     bit-exact results (vs. a fault-free run), while approximate tasks
//     keep their drop-on-fault accounting;
//   * serve-tier resilience — watchdog timeouts convert stuck/faulted
//     request bodies into drops instead of leaked in-flight slots, lazy
//     EDF expiry sheds hopeless requests, and drain() still quiesces with
//     faults flying.
//
// Every test arms a plan, runs, and disarms in a guard — the injector is
// process-global, so leaking an armed plan would poison later tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chaos_test_util.hpp"
#include "core/sigrt.hpp"
#include "fault/fault.hpp"
#include "serve/server.hpp"

// Resilience tests that drive their faults through the API (always-false
// validators, stuck bodies, past deadlines) run in every configuration;
// the rest need injected faults and call SKIP_WITHOUT_INJECTION().

namespace {

using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;
using sigrt::test::ArmedPlan;
using sigrt::test::chaos_seed;

RuntimeConfig config(unsigned workers) {
  RuntimeConfig c;
  c.workers = workers;
  c.policy = PolicyKind::Agnostic;
  c.record_task_log = false;
  return c;
}

// --- determinism ----------------------------------------------------------

/// One fixed workload: N checked accurate tasks spawned from one thread, so
/// task ids (and therefore fault streams) are identical across runs however
/// the scheduler places them.
sigrt::fault::Trace run_checked_workload(std::uint64_t seed) {
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(seed);
  plan.with(sigrt::fault::Site::TaskCrash, 0.05)
      .with(sigrt::fault::Site::TaskDelay, 0.05, /*param_us=*/50);
  ArmedPlan armed(plan);

  Runtime rt(config(4));
  constexpr int kTasks = 400;
  std::vector<std::uint64_t> out(kTasks, 0);
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn(sigrt::task([&out, i] { out[i] = 31ull * i + 7; })
                 .check([&out, i] { return out[i] == 31ull * i + 7; })
                 .max_redos(8));
  }
  rt.wait_all();
  return sigrt::fault::trace();
}

TEST(FaultDeterminism, SameSeedSameTraceDifferentSeedDifferentTrace) {
  SKIP_WITHOUT_INJECTION();
  const sigrt::fault::Trace a = run_checked_workload(0xC0FFEE);
  const sigrt::fault::Trace b = run_checked_workload(0xC0FFEE);
  const sigrt::fault::Trace c = run_checked_workload(0xBADF00D);

  EXPECT_GT(a.total(), 0u) << "plan never fired: the suite is vacuous";
  EXPECT_EQ(a.hash, b.hash);
  for (unsigned s = 0; s < sigrt::fault::kSiteCount; ++s) {
    EXPECT_EQ(a.fires[s], b.fires[s]) << "site " << s;
  }
  EXPECT_NE(a.hash, c.hash);
}

TEST(FaultDeterminism, DisarmedSitesNeverFire) {
  SKIP_WITHOUT_INJECTION();
  sigrt::fault::FaultPlan plan;  // all probabilities zero
  ArmedPlan armed(plan);
  Runtime rt(config(2));
  for (int i = 0; i < 64; ++i) {
    rt.spawn(sigrt::task([] {}).check([] { return true; }).max_redos(2));
  }
  rt.wait_all();
  EXPECT_EQ(sigrt::fault::trace().total(), 0u);
  EXPECT_EQ(rt.stats().redone, 0u);
}

// --- the redo oracle ------------------------------------------------------

TEST(FaultRedo, CrashedAccurateTasksRedoToBitExactResults) {
  SKIP_WITHOUT_INJECTION();
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(0x5EED);
  plan.with(sigrt::fault::Site::TaskCrash, 0.05);
  ArmedPlan armed(plan);

  Runtime rt(config(4));
  constexpr int kTasks = 800;
  std::vector<std::uint64_t> out(kTasks, 0);
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn(sigrt::task([&out, i] { out[i] = 1000003ull * i + 17; })
                 .check([&out, i] { return out[i] == 1000003ull * i + 17; })
                 .max_redos(5));
  }
  rt.wait_all();

  // Accurate results are bit-exact despite the crashes...
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_EQ(out[i], 1000003ull * i + 17) << "task " << i;
  }
  // ...because the faulted ones actually re-executed.
  const auto s = rt.stats();
  EXPECT_GT(s.redone, 0u);
  EXPECT_EQ(s.redone,
            sigrt::fault::trace().fires[static_cast<unsigned>(
                sigrt::fault::Site::TaskCrash)]);
}

TEST(FaultRedo, CorruptionOnUnreliableWorkersIsCaughtAndRedone) {
  SKIP_WITHOUT_INJECTION();
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(0xBEEF);
  plan.with(sigrt::fault::Site::TaskCorrupt, 0.5);
  ArmedPlan armed(plan);

  RuntimeConfig c = config(4);
  // Three of four workers unreliable: checked tasks (unreliable_ok) flood
  // into the NTC partition, and the lone reliable worker still exists for
  // the retries (redo clears unreliable_ok).
  c.unreliable_workers = 3;
  Runtime rt(c);
  constexpr int kTasks = 600;
  std::vector<std::uint64_t> out(kTasks, 0);
  // How many checked tasks the NTC partition actually executes is a
  // scheduling accident (a fast reliable worker can drain a whole batch
  // before the stealers wake), so run batches until the corrupt site has
  // demonstrably fired — every batch still asserts bit-exact results.
  auto run_batch = [&] {
    std::fill(out.begin(), out.end(), 0);
    for (int i = 0; i < kTasks; ++i) {
      // Fault-aware kernel: writes garbage when the corrupt site fired on
      // this execution — the silent NTC bit-flip model.  The validator
      // catches it; the redo lands on a reliable worker and fixes it.  The
      // spin keeps the batch alive long enough for the unreliable workers
      // to steal a real share.
      rt.spawn(sigrt::task([&out, i] {
                 unsigned acc = 0;
                 for (int spin = 0; spin < 2000; ++spin) acc += spin;
                 volatile unsigned sink = acc;
                 (void)sink;
                 out[i] = sigrt::fault::corrupting() ? 0xDEADBEEFull
                                                     : 7919ull * i + 3;
               })
                   .check([&out, i] { return out[i] == 7919ull * i + 3; })
                   .max_redos(3));
    }
    rt.wait_all();
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(out[i], 7919ull * i + 3) << "task " << i;
    }
  };
  for (int round = 0; round < 50 && rt.stats().corrupted_detected == 0;
       ++round) {
    run_batch();
  }

  const auto s = rt.stats();
  EXPECT_GT(s.corrupted_detected, 0u);
  EXPECT_GT(s.redone, 0u);
  EXPECT_GE(s.redone, s.corrupted_detected);
}

TEST(FaultRedo, ApproximateInjectedCrashesAccountAsDrops) {
  SKIP_WITHOUT_INJECTION();
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(0xAB5E);
  plan.with(sigrt::fault::Site::TaskCrash, 1.0);
  ArmedPlan armed(plan);

  RuntimeConfig c = config(2);
  c.policy = PolicyKind::GTB;  // Agnostic would run everything accurate
  Runtime rt(c);
  const auto g = rt.create_group("approx", 0.0);
  constexpr int kTasks = 32;
  std::atomic<int> approx_ran{0};
  for (int i = 0; i < kTasks; ++i) {
    // significance <= 0 pins the task approximate under every degrading
    // policy, independent of how the group ratio is steered.
    rt.spawn(sigrt::task([] { FAIL() << "accurate body must not run"; })
                 .approx([&] { approx_ran.fetch_add(1); })
                 .significance(-1.0)
                 .group(g));
  }
  // Drop-on-fault: no barrier error, every crashed approximate task
  // accounts as a dropped task + an NTC fault.
  rt.wait_group(g);
  const auto r = rt.group_report(g);
  EXPECT_EQ(approx_ran.load(), 0);  // p=1.0: every approximate body crashed
  EXPECT_EQ(r.dropped, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(r.redone, 0u);
  EXPECT_EQ(rt.stats().faults, static_cast<std::uint64_t>(kTasks));
}

TEST(FaultRedo, ExhaustedRedoBudgetSurfacesAtTheBarrier) {
  // No injection needed: a validator that never accepts exhausts the
  // budget and the barrier reports the corruption like a thrown body.
  Runtime rt(config(2));
  rt.spawn(sigrt::task([] {}).check([] { return false; }).max_redos(2));
  EXPECT_THROW(rt.wait_all(), std::runtime_error);
  const auto s = rt.stats();
  EXPECT_EQ(s.redone, 2u);              // both budgeted re-executions ran
  EXPECT_EQ(s.corrupted_detected, 3u);  // initial try + 2 redos rejected
}

TEST(FaultRedo, RedoWorksInInlineMode) {
  SKIP_WITHOUT_INJECTION();
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(0x117);
  plan.with(sigrt::fault::Site::TaskCrash, 0.2);
  ArmedPlan armed(plan);

  Runtime rt(config(0));  // inline: redo re-enqueues onto the inline queue
  constexpr int kTasks = 200;
  std::vector<int> out(kTasks, 0);
  for (int i = 0; i < kTasks; ++i) {
    rt.spawn(sigrt::task([&out, i] { out[i] = i + 1; })
                 .check([&out, i] { return out[i] == i + 1; })
                 .max_redos(8));
  }
  rt.wait_all();
  for (int i = 0; i < kTasks; ++i) ASSERT_EQ(out[i], i + 1);
  EXPECT_GT(rt.stats().redone, 0u);
}

// --- serve tier under injection ------------------------------------------

TEST(FaultServe, WatchdogConvertsInjectedCrashesToDropsAndDrainCompletes) {
  SKIP_WITHOUT_INJECTION();
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(0xD06);
  plan.with(sigrt::fault::Site::TaskCrash, 0.05);
  ArmedPlan armed(plan);

  sigrt::serve::ServerOptions o;
  o.runtime.workers = 4;
  o.epoch_ms = 2.0;
  sigrt::serve::Server srv(o);
  sigrt::serve::RequestClassConfig cfg;
  cfg.name = "chaos";
  cfg.qos.deadline_ns = 1e9;  // far away: no latency-violation pressure
  // A 500-request burst would trip the default backlog watermark and the
  // controller would perforate — a different (legitimate) drop source that
  // this test must silence so the watchdog is the ONLY resolver of faults.
  cfg.qos.backlog_high = 1u << 20;
  cfg.watchdog_ns = 50'000'000;  // 50 ms: stuck/faulted requests resolve
  const auto cls = srv.register_class(cfg);

  constexpr int kRequests = 500;
  std::atomic<int> served{0}, dropped{0};
  int admitted = 0;
  for (int i = 0; i < kRequests; ++i) {
    sigrt::serve::Job job;
    job.accurate = [&] { served.fetch_add(1); };
    job.significance = 1.0;
    job.on_drop = [&] { dropped.fetch_add(1); };
    job.on_timeout = [&] { dropped.fetch_add(1); };
    if (srv.submit(cls, std::move(job)) != sigrt::serve::Admission::Shed) {
      ++admitted;
    }
  }
  // A crashed request body never reaches complete(); only the watchdog can
  // release its slot.  drain() returning at all therefore proves the
  // watchdog resolved every one of them.
  srv.drain();

  const auto r = srv.class_report(cls);
  EXPECT_EQ(r.submitted, static_cast<std::uint64_t>(admitted));
  // Conservation: every admitted request landed in exactly one bucket
  // (timeouts are counted inside served_dropped).
  EXPECT_EQ(r.served(), r.submitted);
  EXPECT_EQ(r.in_flight, 0u);
  EXPECT_GT(r.timed_out, 0u);  // p=0.05 over 500 requests: ~zero flake odds
  EXPECT_EQ(r.served_dropped, r.timed_out);
  EXPECT_EQ(static_cast<std::uint64_t>(served.load()), r.served_accurate);
  EXPECT_EQ(static_cast<std::uint64_t>(dropped.load()), r.timed_out);
}

TEST(FaultServe, FloodingTenantFaultsNeverDentAnotherTenantsCriticalClass) {
  SKIP_WITHOUT_INJECTION();
  // The multi-tenant isolation acceptance re-run with task faults flying:
  // a flooding tenant overloads its Degradable class while injected
  // crashes randomly kill request bodies.  Crashed bodies resolve through
  // each class's watchdog; none of it — overload or faults — may dent the
  // vip tenant's Critical class, whose requests must all be admitted and
  // all be resolved.
  sigrt::fault::FaultPlan plan;
  plan.seed = chaos_seed(0x150);
  plan.with(sigrt::fault::Site::TaskCrash, 0.01);
  ArmedPlan armed(plan);

  const auto spin_us = [](std::int64_t us) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < until) {
    }
  };

  sigrt::serve::ServerOptions o;
  o.runtime.workers = 2;
  o.epoch_ms = 2.0;  // the watchdog sweep rides the controller epoch
  sigrt::serve::Server srv(o);

  sigrt::serve::RequestClassConfig vip_cfg;
  vip_cfg.name = "interactive";
  vip_cfg.criticality = sigrt::serve::Criticality::Critical;
  vip_cfg.qos.deadline_ns = 1e9;
  vip_cfg.qos.backlog_high = 1u << 20;  // no perforation: watchdog only
  vip_cfg.watchdog_ns = 50'000'000;
  vip_cfg.max_in_flight = 256;
  sigrt::serve::RequestClassConfig flood_cfg;
  flood_cfg.name = "batch";
  flood_cfg.criticality = sigrt::serve::Criticality::Degradable;
  flood_cfg.qos.deadline_ns = 1e9;
  flood_cfg.watchdog_ns = 50'000'000;  // crashed bodies must not leak slots
  flood_cfg.max_in_flight = 256;
  const auto vip_cls = srv.register_class(vip_cfg);
  const auto flood_cls = srv.register_class(flood_cfg);

  const auto flood = srv.register_tenant(
      {.name = "flood", .max_in_flight = 8, .fair_in_flight = 2});
  const auto vip = srv.register_tenant({.name = "vip"});

  std::atomic<bool> stop{false};
  std::thread flooder([&] {
    while (!stop.load(std::memory_order_acquire)) {
      sigrt::serve::Job job;
      job.accurate = [&] { spin_us(500); };
      job.approximate = [&] { spin_us(50); };
      job.significance = 0.7;
      (void)srv.submit(flood_cls, flood, std::move(job));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  constexpr int kVipRequests = 50;
  for (int i = 0; i < kVipRequests; ++i) {
    sigrt::serve::Job job;
    job.accurate = [&] { spin_us(100); };
    job.significance = 1.0;
    ASSERT_NE(srv.submit(vip_cls, vip, std::move(job)),
              sigrt::serve::Admission::Shed);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  flooder.join();
  srv.drain();

  // The vip tenant is untouched by the flood AND by the fault storm: zero
  // shed, every request resolved.  Injected crashes may hit a vip body too
  // (the injector is tenant-blind) — those resolve as watchdog timeouts,
  // and at p = 0.01 over 50 requests more than a handful is ~impossible.
  const auto rv = srv.class_report(vip_cls);
  EXPECT_EQ(rv.shed, 0u);
  EXPECT_EQ(rv.served(), static_cast<std::uint64_t>(kVipRequests));
  EXPECT_EQ(rv.in_flight, 0u);
  EXPECT_LE(rv.timed_out, 5u);
  EXPECT_EQ(rv.served_accurate, kVipRequests - rv.timed_out);
  EXPECT_EQ(srv.tenant_report(vip).cells[vip_cls].shed, 0u);

  // The flood bore its own overload and its own faults: admission shed or
  // degraded its traffic, and what was admitted still conserves exactly.
  const auto rf = srv.class_report(flood_cls);
  EXPECT_EQ(rf.served() + rf.perforated + rf.expired, rf.submitted);
  EXPECT_EQ(rf.in_flight, 0u);
  const auto tf = srv.tenant_report(flood);
  EXPECT_GT(tf.cells[flood_cls].degraded + tf.cells[flood_cls].shed, 0u);
}

TEST(FaultServe, WatchdogResolvesStuckBodyWhileItStillRuns) {
  sigrt::serve::ServerOptions o;
  o.runtime.workers = 2;
  o.epoch_ms = 2.0;
  sigrt::serve::Server srv(o);
  sigrt::serve::RequestClassConfig cfg;
  cfg.name = "stuck";
  cfg.qos.deadline_ns = 1e9;
  cfg.watchdog_ns = 20'000'000;  // 20 ms
  const auto cls = srv.register_class(cfg);

  std::atomic<bool> release_body{false};
  std::atomic<int> timeouts{0};
  sigrt::serve::Job job;
  job.accurate = [&] {
    while (!release_body.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  job.significance = 1.0;
  job.on_timeout = [&] { timeouts.fetch_add(1); };
  ASSERT_NE(srv.submit(cls, std::move(job)), sigrt::serve::Admission::Shed);

  // The watchdog resolves the request (slot released, timeout fired) while
  // the body is STILL parked in its loop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (srv.class_report(cls).timed_out == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto mid = srv.class_report(cls);
  EXPECT_EQ(mid.timed_out, 1u);
  EXPECT_EQ(mid.in_flight, 0u);
  EXPECT_EQ(timeouts.load(), 1);

  // Unstick the body; its late completion must not double-account.
  release_body.store(true, std::memory_order_release);
  srv.close();
  const auto r = srv.class_report(cls);
  EXPECT_EQ(r.served(), 1u);
  EXPECT_EQ(r.served_dropped, 1u);
  EXPECT_EQ(r.served_accurate, 0u);
}

TEST(FaultServe, ExpiredRequestsAreShedAtPopWithDistinctAccounting) {
  sigrt::serve::ServerOptions o;
  o.runtime.workers = 2;
  o.epoch_ms = 0.0;  // no controller: expiry is a dispatcher-side property
  sigrt::serve::Server srv(o);
  sigrt::serve::RequestClassConfig cfg;
  cfg.name = "expiry";
  cfg.shed_expired = true;
  const auto cls = srv.register_class(cfg);

  constexpr int kRequests = 64;
  std::atomic<int> expired_cbs{0}, bodies{0};
  for (int i = 0; i < kRequests; ++i) {
    sigrt::serve::Job job;
    job.accurate = [&] { bodies.fetch_add(1); };
    job.significance = 1.0;
    job.deadline_ns = 1;  // expires one nanosecond after arrival
    job.on_expire = [&] { expired_cbs.fetch_add(1); };
    ASSERT_NE(srv.submit(cls, std::move(job)), sigrt::serve::Admission::Shed);
  }
  srv.drain();

  const auto r = srv.class_report(cls);
  EXPECT_EQ(r.expired, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(static_cast<std::uint64_t>(expired_cbs.load()), r.expired);
  EXPECT_EQ(bodies.load(), 0);
  EXPECT_EQ(r.served(), 0u);
  EXPECT_EQ(r.in_flight, 0u);
}

TEST(FaultServe, DrainServesBacklogThenCloseIsIdempotent) {
  sigrt::serve::ServerOptions o;
  o.runtime.workers = 2;
  o.epoch_ms = 2.0;
  sigrt::serve::Server srv(o);
  sigrt::serve::RequestClassConfig cfg;
  cfg.name = "drain";
  cfg.qos.deadline_ns = 1e9;
  const auto cls = srv.register_class(cfg);

  constexpr int kRequests = 256;
  std::atomic<int> served{0};
  for (int i = 0; i < kRequests; ++i) {
    sigrt::serve::Job job;
    job.accurate = [&] { served.fetch_add(1); };
    job.significance = 1.0;
    ASSERT_NE(srv.submit(cls, std::move(job)), sigrt::serve::Admission::Shed);
  }
  srv.drain();
  // Everything admitted before the drain was served, nothing shed by it.
  EXPECT_EQ(served.load(), kRequests);
  const auto r = srv.class_report(cls);
  EXPECT_EQ(r.served_accurate, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(r.in_flight, 0u);

  // Post-drain submissions shed cleanly; close() after drain() is a no-op
  // plus the racer sweep, and both stay idempotent.
  std::atomic<int> dropped{0};
  sigrt::serve::Job late;
  late.accurate = [] {};
  late.on_drop = [&] { dropped.fetch_add(1); };
  EXPECT_EQ(srv.submit(cls, std::move(late)), sigrt::serve::Admission::Shed);
  srv.close();
  srv.drain();
  srv.close();
  SUCCEED();
}

}  // namespace
