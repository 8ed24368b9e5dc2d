// Elastic-pool tests: deep spawn+taskwait recursion keeps per-thread
// helping nesting bounded by the helping-depth cap (the stack-bound oracle
// for the slot handoff, whose one trigger is that cap); a detached
// worker's outer frames park instead of spinning; spares park between
// handoffs and are reused instead of re-created; and chains whose
// innermost task throws leave the pool balanced.  They run under TSan in
// CI — they are the race gate for the slot-handoff protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "core/sigrt.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::PoolStats;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

RuntimeConfig pool_config(unsigned workers) {
  RuntimeConfig c;
  c.workers = workers;
  c.policy = PolicyKind::Agnostic;
  c.record_task_log = false;
  return c;
}

/// Polls `pred` for up to `deadline_ms`; returns whether it ever held.
template <typename Pred>
bool eventually(Pred pred, int deadline_ms = 2000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// --- deep recursion: helping nesting stays bounded -----------------------

std::atomic<int> g_max_nesting{0};
thread_local int tls_nesting = 0;

void update_max(std::atomic<int>& max, int v) {
  int cur = max.load(std::memory_order_relaxed);
  while (v > cur &&
         !max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void chain(Runtime& rt, int depth, std::atomic<int>& visited) {
  ++tls_nesting;
  update_max(g_max_nesting, tls_nesting);
  visited.fetch_add(1, std::memory_order_relaxed);
  if (depth > 0) {
    rt.spawn(sigrt::task([&rt, depth, &visited] {
      chain(rt, depth - 1, visited);
    }));
    rt.wait_all();  // in-task: helping barrier over the one child
  }
  --tls_nesting;
}

TEST(ElasticPool, DeepChainKeepsPerThreadNestingUnderHelpingDepthCap) {
  constexpr int kDepth = 128;
  Runtime rt(pool_config(2));
  g_max_nesting.store(0);

  std::atomic<int> visited{0};
  rt.spawn(sigrt::task([&] { chain(rt, kDepth - 1, visited); }));
  rt.wait_all();

  EXPECT_EQ(visited.load(), kDepth);
  // Inline helping nests a child's frame inside its waiting parent's, so
  // native stack growth tracks tls_nesting.  The cap forces a detach
  // instead of helping past kHelpingDepth — a 128-deep chain must NOT put
  // 128 frames on any one thread.  Slack covers the helping frames a spare
  // inherits mid-chain before its own counter resets.
  EXPECT_LE(g_max_nesting.load(),
            static_cast<int>(Runtime::kHelpingDepth) * 2 + 8);
  // The bound is only meaningful if the detach path actually engaged.
  EXPECT_GE(rt.pool_stats().handoffs, 1u);
}

// A worker that handed its slot off past kHelpingDepth keeps its outer
// helping frames on the stack.  Once the inner frames unwind, each outer
// frame waits for a child the slot's new owner has yet to run; it must park
// for it, not spin.  A comb — every node spawns a sleeping leaf, then the
// next node — makes those waits long: while the leaves sleep, nothing
// should burn CPU, so the process's CPU time stays a small share of the
// wall time.  Spinning outer frames burn a core for the whole unwind.
TEST(ElasticPool, DetachedWorkerParksInItsOuterHelpingFrames) {
  constexpr int kDepth = static_cast<int>(Runtime::kHelpingDepth) + 8;
  Runtime rt(pool_config(1));
  std::atomic<int> slept{0};
  struct Comb {
    static void node(Runtime& rt, int depth, std::atomic<int>& slept) {
      rt.spawn(sigrt::task([&slept] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        slept.fetch_add(1);
      }));
      if (depth > 1) {
        rt.spawn(sigrt::task(
            [&rt, depth, &slept] { node(rt, depth - 1, slept); }));
      }
      rt.wait_all();  // in-task: the leaf and the next node
    }
  };
  const auto cpu_s = [] {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
  };
  const double cpu0 = cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  rt.spawn(sigrt::task([&] { Comb::node(rt, kDepth, slept); }));
  rt.wait_all();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double cpu = cpu_s() - cpu0;
  EXPECT_EQ(slept.load(), kDepth);
  EXPECT_GE(rt.pool_stats().handoffs, 1u) << "the comb never detached";
  EXPECT_LT(cpu, 0.3 * wall) << "cpu " << cpu << " s over " << wall
                             << " s of mostly sleeping leaves";
}

// Spares park between handoffs: a chain 64 deep on one worker hands the
// slot off about three times a round, and every later round reuses the
// spares the first one created instead of starting new threads.
TEST(ElasticPool, SparesStayParkedAndAreReusedAcrossRounds) {
  constexpr int kDepth = 64;
  constexpr int kRounds = 6;
  Runtime rt(pool_config(1));
  std::atomic<int> visited{0};
  std::uint64_t handoffs = 0;
  std::uint64_t spares = 0;  // spawned by the first round
  for (int round = 0; round < kRounds; ++round) {
    rt.spawn(sigrt::task([&] { chain(rt, kDepth - 1, visited); }));
    rt.wait_all();
    const PoolStats s = rt.pool_stats();
    EXPECT_GT(s.handoffs, handoffs) << "round " << round << " never detached";
    handoffs = s.handoffs;
    if (round == 0) spares = s.spares_spawned;
    EXPECT_EQ(s.spares_spawned, spares) << "round " << round;
    EXPECT_EQ(s.live_threads, 1 + s.spares_spawned) << "round " << round;
    // Idle well past any grace period a pool could give its spares.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(visited.load(), kDepth * kRounds);
}

/// A chain of in-task taskwaits whose innermost task throws; every level's
/// wait rethrows, so the error climbs to the root.
void throwing_chain(Runtime& rt, int depth) {
  if (depth == 0) throw std::runtime_error("innermost boom");
  rt.spawn(sigrt::task([&rt, depth] { throwing_chain(rt, depth - 1); }));
  rt.wait_all();
}

TEST(ElasticPool, PoolStaysBalancedAfterBlockingStormsWithFailures) {
  // Repeated storms of chains nested past the helping-depth cap whose
  // innermost task THROWS: the handoff path (slot donated to a spare)
  // composes with the error path (exception recorded, every barrier on
  // the way up rethrows).  The oracle is the PoolStats ledger — after the
  // storms every thread but the two slot owners is parked in the pool,
  // none was lost or leaked, and the spare budget held.
  Runtime rt(pool_config(2));

  constexpr int kRounds = 8;
  constexpr int kChains = 4;
  // Two slot owners hold at most kHelpingDepth + 1 waiting levels each,
  // so a chain this deep hands a slot off at least once.
  constexpr int kChainDepth = 2 * static_cast<int>(Runtime::kHelpingDepth) + 8;
  std::atomic<int> siblings{0};
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kChains; ++i) {
      rt.spawn(sigrt::task([&rt] { throwing_chain(rt, kChainDepth); }));
      rt.spawn(sigrt::task([&] { siblings.fetch_add(1); }));
    }
    EXPECT_THROW(rt.wait_all(), std::runtime_error) << "round " << round;
  }

  EXPECT_EQ(siblings.load(), kRounds * kChains);
  EXPECT_GE(rt.pool_stats().handoffs, 1u);  // the storms really handed off
  EXPECT_TRUE(eventually([&] {
    const PoolStats s = rt.pool_stats();
    return s.idle_spares == s.spares_spawned &&
           s.live_threads == 2 + s.spares_spawned;
  })) << "pool unbalanced: live_threads=" << rt.pool_stats().live_threads
      << " idle_spares=" << rt.pool_stats().idle_spares
      << " spares_spawned=" << rt.pool_stats().spares_spawned;
  EXPECT_LE(rt.pool_stats().spares_spawned, 16u);  // Scheduler::kMaxSpares

  // And the pool still runs work.
  std::atomic<int> after{0};
  for (int i = 0; i < 8; ++i) {
    rt.spawn(sigrt::task([&] { after.fetch_add(1); }));
  }
  rt.wait_all();
  EXPECT_EQ(after.load(), 8);
}

}  // namespace
