// Nested-parallelism gate: divide-and-conquer fib with any-thread spawn
// and an in-task taskwait (helping barrier) on every interior node —
// the workload shape the single-spawner contract could not express.
//
// Interior nodes are pinned significant (they carry the tree structure:
// approximating one would prune its whole subtree and collapse the
// workload), while leaf significance decays with depth (sig =
// 0.97^depth), so under LQH with ratio < 1 the runtime skips a depth-
// weighted share of the leaf work — the paper's quality knob applied at
// the bottom of a divide-and-conquer recursion.
//
// Cells: {agnostic, LQH ratio 0.5} x {1, 2, 8} workers.  Like micro_spawn/micro_deps, the driver counts heap
// allocations through an instrumented global operator new and warms up
// until a full round allocates nothing, so the steady-state
// allocs-per-task column extends the zero-allocation contract to the
// nested spawn + helping-barrier path.  Output is one JSON line
// (BENCH_micro_nested.json in CI); CLI arguments are accepted and ignored
// for harness compatibility.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "core/sigrt.hpp"
#include "fault/fault.hpp"
#include "support/timer.hpp"

namespace {

// fib(40) with cutoff 20: recursion depth 20, ~21k interior+leaf tasks on
// the full (agnostic) tree.
constexpr int kFibN = 40;
constexpr int kCutoff = 20;
constexpr double kSigDecay = 0.97;

std::uint64_t fib_iterative(int n) {
  std::uint64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  return a;
}

std::atomic<std::uint64_t> g_sink{0};  // keeps leaf work observable

void spawn_node(sigrt::Runtime& rt, int n, int depth);

void run_accurate(sigrt::Runtime& rt, int n, int depth) {
  if (n < kCutoff) {
    g_sink.fetch_add(fib_iterative(n), std::memory_order_relaxed);
    return;
  }
  spawn_node(rt, n - 1, depth + 1);
  spawn_node(rt, n - 2, depth + 1);
  rt.wait_all();  // in-task: helping barrier over this node's children
}

void spawn_node(sigrt::Runtime& rt, int n, int depth) {
  // Interior nodes carry the recursion: significance 1.0 pins them
  // accurate under every policy.  Leaves degrade with depth.
  const double sig = n >= kCutoff ? 1.0 : std::pow(kSigDecay, depth);
  rt.spawn(sigrt::task([&rt, n, depth] { run_accurate(rt, n, depth); })
               // A leaf's approximate body skips its fib slice entirely.
               .approx([] {})
               .significance(sig));
}

std::uint64_t nested_round(sigrt::Runtime& rt) {
  const std::uint64_t before = rt.stats().spawned;
  spawn_node(rt, kFibN, 0);
  rt.wait_all();  // top level: global barrier
  return rt.stats().spawned - before;
}

struct NestedRecord {
  const char* policy = "";
  double ratio = 1.0;
  unsigned workers = 0;
  std::uint64_t tasks = 0;
  std::uint64_t accurate = 0;
  std::uint64_t approximate = 0;
  std::uint64_t allocs = 0;
  double allocs_per_task = 0.0;
  double wall_s = 0.0;
  double tasks_per_sec = 0.0;
  /// Per-worker {near, far} steal deltas over the measured round
  /// (topology-aware victim order: near = same LLC or closer).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> steal_locality;
};

NestedRecord measure(sigrt::PolicyKind policy, double ratio, unsigned workers,
                     int max_warmup) {
  sigrt::RuntimeConfig c;
  c.workers = workers;
  c.policy = policy;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  rt.set_ratio(sigrt::kDefaultGroup, ratio);

  // Warm-up: grow the task pool, the LQH histories and every helping
  // scratch frame to the workload's high-water mark, repeating until a
  // full round allocates nothing.
  for (int r = 0; r < max_warmup; ++r) {
    const std::uint64_t before = alloc_counter::count();
    (void)nested_round(rt);
    if (r > 0 && alloc_counter::count() == before) break;
  }

  const auto r0 = rt.group_report(sigrt::kDefaultGroup);
  const auto steals0 = rt.steal_locality();
  const std::uint64_t a0 = alloc_counter::count();
  const std::int64_t t0 = sigrt::support::now_ns();
  const std::uint64_t tasks = nested_round(rt);
  const std::int64_t t1 = sigrt::support::now_ns();
  const std::uint64_t a1 = alloc_counter::count();
  const auto r1 = rt.group_report(sigrt::kDefaultGroup);
  const auto steals1 = rt.steal_locality();

  NestedRecord rec;
  rec.policy = sigrt::to_string(policy);
  rec.ratio = ratio;
  rec.workers = workers;
  rec.tasks = tasks;
  rec.accurate = r1.accurate - r0.accurate;
  rec.approximate = r1.approximate - r0.approximate;
  rec.allocs = a1 - a0;
  rec.allocs_per_task =
      tasks == 0 ? 0.0
                 : static_cast<double>(rec.allocs) / static_cast<double>(tasks);
  rec.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (rec.wall_s > 0) {
    rec.tasks_per_sec = static_cast<double>(tasks) / rec.wall_s;
  }
  rec.steal_locality.resize(steals1.size());
  for (std::size_t i = 0; i < steals1.size(); ++i) {
    const std::uint64_t n0 = i < steals0.size() ? steals0[i].first : 0;
    const std::uint64_t f0 = i < steals0.size() ? steals0[i].second : 0;
    rec.steal_locality[i] = {steals1[i].first - n0, steals1[i].second - f0};
  }
  return rec;
}

// --- deep taskwait chain ---------------------------------------------------
// A depth-64 chain of in-task taskwaits: every level spawns one child and
// waits for it, nesting one helping-barrier frame per level.  Past the
// helping-depth cap the worker hands its slot to a spare thread instead of
// growing its stack without bound, so the cell's handoffs/spares columns
// are the elastic pool reacting and its wall time the cost of ~depth/cap
// slot handoffs.
constexpr int kChainDepth = 64;

void chain_node(sigrt::Runtime& rt, int depth) {
  if (depth <= 0) {
    g_sink.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  rt.spawn(sigrt::task([&rt, depth] { chain_node(rt, depth - 1); }));
  rt.wait_all();  // in-task: helping barrier one frame deeper per level
}

struct DeepChainRecord {
  unsigned rounds = 0;
  double wall_s = 0.0;
  std::uint64_t handoffs = 0;
  std::uint64_t spares_spawned = 0;
  std::uint64_t allocs = 0;
};

DeepChainRecord measure_deep_chain(unsigned rounds) {
  sigrt::RuntimeConfig c;
  c.workers = 2;
  c.policy = sigrt::PolicyKind::Agnostic;  // pass-through: no buffering
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  const auto round = [&rt] {
    rt.spawn(sigrt::task([&rt] { chain_node(rt, kChainDepth); }));
    rt.wait_all();
  };
  for (unsigned r = 0; r < 4; ++r) round();  // warm the pool and the spares

  DeepChainRecord rec;
  rec.rounds = rounds;
  const auto p0 = rt.pool_stats();
  const std::uint64_t a0 = alloc_counter::count();
  const std::int64_t t0 = sigrt::support::now_ns();
  for (unsigned r = 0; r < rounds; ++r) round();
  const std::int64_t t1 = sigrt::support::now_ns();
  const std::uint64_t a1 = alloc_counter::count();
  const auto p1 = rt.pool_stats();
  rec.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  rec.handoffs = p1.handoffs - p0.handoffs;
  rec.spares_spawned = p1.spares_spawned - p0.spares_spawned;
  rec.allocs = a1 - a0;
  return rec;
}

// --- barrier wake latency ---------------------------------------------------
// One round: the root task spawns one busy child and spins (yielding)
// until the child has demonstrably STARTED on the other worker — only then
// does it enter its in-task barrier, so the child can never be helped
// inline and the waiter genuinely has to wait for a remote completion.
// The waiter parks and is woken by the last-child notify.  Latency is the
// gap between the child's end stamp and the waiter's wake stamp.

std::int64_t wake_round(sigrt::Runtime& rt) {
  std::atomic<bool> started{false};
  std::atomic<std::int64_t> last_end{0};
  std::atomic<std::int64_t> wake{0};
  rt.spawn(sigrt::task([&] {
    rt.spawn(sigrt::task([&] {
      started.store(true, std::memory_order_seq_cst);
      // Busy-spin, do not sleep: a sleeping child ends on a kernel timer
      // tick, which would fold timer slack into the measured wake.  The
      // spin must also outlast the waiter's pre-park yield phase even on a
      // single-CPU box, where each yield grants this child a full
      // scheduler slice (~1 ms x 16 yields), so it runs for 20 ms.
      const std::int64_t t0 = sigrt::support::now_ns();
      while (sigrt::support::now_ns() - t0 < 20'000'000) {
      }
      last_end.store(sigrt::support::now_ns(), std::memory_order_seq_cst);
    }));
    // Hand the child to the other worker before entering the barrier
    // (yield keeps the second worker runnable on oversubscribed boxes).
    while (!started.load(std::memory_order_seq_cst)) {
      std::this_thread::yield();
    }
    rt.wait_all();  // in-task: nothing to help — a pure remote wait
    wake.store(sigrt::support::now_ns(), std::memory_order_seq_cst);
  }));
  rt.wait_all();
  return wake.load() - last_end.load();
}

struct WakeRecord {
  unsigned rounds = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

WakeRecord measure_barrier_wake(unsigned rounds) {
  sigrt::RuntimeConfig c;
  c.workers = 2;
  c.policy = sigrt::PolicyKind::Agnostic;  // pass-through: untimed parks
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  for (unsigned r = 0; r < 4; ++r) (void)wake_round(rt);
  std::vector<std::int64_t> ns;
  ns.reserve(rounds);
  for (unsigned r = 0; r < rounds; ++r) ns.push_back(wake_round(rt));
  std::sort(ns.begin(), ns.end());
  WakeRecord rec;
  rec.rounds = rounds;
  rec.p50_us = static_cast<double>(ns[ns.size() / 2]) * 1e-3;
  rec.p99_us = static_cast<double>(ns[ns.size() * 99 / 100]) * 1e-3;
  return rec;
}

// --- redo overhead (disarmed check/redo path) ------------------------------
// The resilience gate: a task that carries a check() validator and a redo
// budget must cost the same as a plain task while no fault plan is armed.
// Rounds alternate between plain and checked spawns over one persistent
// inline runtime so machine noise lands on both sides equally; the cell
// reports median ns/task for each side, their ratio (CI gates <= 1.02x),
// and the steady-state allocation count across the measured checked rounds
// (CI gates 0: the validator rides the task slab's inline buffer).

constexpr unsigned kRedoRounds = 65;          // odd: median is a real sample
constexpr std::uint64_t kRedoTasks = 8192;    // per round

void redo_body(std::uint64_t i) {
  unsigned acc = static_cast<unsigned>(i);
  for (int k = 0; k < 64; ++k) acc = acc * 1664525u + 1013904223u;
  g_sink.fetch_add(acc, std::memory_order_relaxed);
}

std::int64_t redo_round_plain(sigrt::Runtime& rt) {
  const std::int64_t t0 = sigrt::support::now_ns();
  for (std::uint64_t i = 0; i < kRedoTasks; ++i) {
    rt.spawn(sigrt::task([i] { redo_body(i); }));
  }
  rt.wait_all();
  return sigrt::support::now_ns() - t0;
}

std::int64_t redo_round_checked(sigrt::Runtime& rt) {
  const std::int64_t t0 = sigrt::support::now_ns();
  for (std::uint64_t i = 0; i < kRedoTasks; ++i) {
    rt.spawn(sigrt::task([i] { redo_body(i); })
                 .check([] { return true; })
                 .max_redos(2));
  }
  rt.wait_all();
  return sigrt::support::now_ns() - t0;
}

struct RedoOverheadRecord {
  unsigned rounds = 0;
  std::uint64_t tasks_per_round = 0;
  double plain_ns_per_task = 0.0;    // median over rounds
  double checked_ns_per_task = 0.0;  // median over rounds
  double ratio = 0.0;                // checked / plain
  std::uint64_t checked_allocs = 0;  // across all measured checked rounds
  double checked_allocs_per_task = 0.0;
};

double median_ns_per_task(std::vector<std::int64_t>& ns) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) /
         static_cast<double>(kRedoTasks);
}

RedoOverheadRecord measure_redo_overhead() {
  sigrt::RuntimeConfig c;
  // One worker, not inline mode: the inline queue is a deque that releases
  // its blocks every round (64 allocs/round at this task count on both
  // sides), which would drown the 0-alloc gate; the worker deque keeps its
  // capacity across rounds.
  c.workers = 1;
  c.policy = sigrt::PolicyKind::Agnostic;
  c.record_task_log = false;
  sigrt::Runtime rt(c);

  // Warm both shapes until a full round allocates nothing.
  for (int r = 0; r < 6; ++r) {
    const std::uint64_t before = alloc_counter::count();
    (void)redo_round_plain(rt);
    (void)redo_round_checked(rt);
    if (r > 0 && alloc_counter::count() == before) break;
  }

  std::vector<std::int64_t> plain_ns, checked_ns;
  plain_ns.reserve(kRedoRounds);
  checked_ns.reserve(kRedoRounds);
  std::uint64_t checked_allocs = 0;
  for (unsigned r = 0; r < kRedoRounds; ++r) {
    // Alternate which side of the pair runs first so cache/branch warmth
    // from the preceding round does not systematically favor one shape.
    if (r % 2 == 0) plain_ns.push_back(redo_round_plain(rt));
    const std::uint64_t a0 = alloc_counter::count();
    checked_ns.push_back(redo_round_checked(rt));
    checked_allocs += alloc_counter::count() - a0;
    if (r % 2 != 0) plain_ns.push_back(redo_round_plain(rt));
  }

  RedoOverheadRecord rec;
  rec.rounds = kRedoRounds;
  rec.tasks_per_round = kRedoTasks;
  // The gated ratio is the median of per-round PAIRED ratios, not the
  // ratio of the two medians: each round's plain and checked halves run
  // back-to-back under the same machine state, so frequency drift over the
  // measurement cancels inside every pair instead of landing on one side.
  std::vector<double> pair_ratio(kRedoRounds);
  for (unsigned r = 0; r < kRedoRounds; ++r) {
    pair_ratio[r] = static_cast<double>(checked_ns[r]) /
                    static_cast<double>(plain_ns[r]);
  }
  std::sort(pair_ratio.begin(), pair_ratio.end());
  rec.ratio = pair_ratio[kRedoRounds / 2];
  rec.plain_ns_per_task = median_ns_per_task(plain_ns);
  rec.checked_ns_per_task = median_ns_per_task(checked_ns);
  rec.checked_allocs = checked_allocs;
  rec.checked_allocs_per_task =
      static_cast<double>(checked_allocs) /
      static_cast<double>(kRedoTasks * kRedoRounds);
  return rec;
}

}  // namespace

int main(int, char**) {
  constexpr unsigned kWorkerSweep[] = {1, 2, 8};
  std::vector<NestedRecord> records;
  for (unsigned w : kWorkerSweep) {
    records.push_back(
        measure(sigrt::PolicyKind::Agnostic, 1.0, w, /*max_warmup=*/6));
    records.push_back(measure(sigrt::PolicyKind::LQH, 0.5, w, /*max_warmup=*/6));
  }
  const DeepChainRecord chain = measure_deep_chain(/*rounds=*/32);
  const WakeRecord wake = measure_barrier_wake(/*rounds=*/250);
  const RedoOverheadRecord redo = measure_redo_overhead();

  std::printf("{\"bench\":\"micro_nested\",\"fib_n\":%d,\"cutoff\":%d,"
              "\"depth\":%d,\"sig_decay\":%.2f,\"cells\":[",
              kFibN, kCutoff, kFibN - kCutoff, kSigDecay);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const NestedRecord& r = records[i];
    std::printf(
        "%s{\"policy\":\"%s\",\"ratio\":%.2f,\"workers\":%u,\"tasks\":%" PRIu64
        ",\"accurate\":%" PRIu64 ",\"approximate\":%" PRIu64
        ",\"allocs\":%" PRIu64
        ",\"allocs_per_task\":%.6f,\"wall_s\":%.6f,\"tasks_per_sec\":%.1f",
        i == 0 ? "" : ",", r.policy, r.ratio, r.workers, r.tasks, r.accurate,
        r.approximate, r.allocs, r.allocs_per_task, r.wall_s, r.tasks_per_sec);
    std::printf(",\"steal_locality\":[");
    for (std::size_t s = 0; s < r.steal_locality.size(); ++s) {
      std::printf("%s{\"near\":%" PRIu64 ",\"far\":%" PRIu64 "}",
                  s == 0 ? "" : ",", r.steal_locality[s].first,
                  r.steal_locality[s].second);
    }
    std::printf("]}");
  }
  std::printf("],\"deep_chain\":{\"depth\":%d,\"rounds\":%u,\"wall_s\":%.6f,"
              "\"handoffs\":%" PRIu64 ",\"spares_spawned\":%" PRIu64
              ",\"allocs\":%" PRIu64 "}",
              kChainDepth, chain.rounds, chain.wall_s, chain.handoffs,
              chain.spares_spawned, chain.allocs);
  std::printf(
      ",\"barrier_wake\":{\"rounds\":%u,"
      "\"event\":{\"p50_us\":%.2f,\"p99_us\":%.2f}}",
      wake.rounds, wake.p50_us, wake.p99_us);
  std::printf(
      ",\"redo_overhead\":{\"fault_injection_compiled\":%s,\"rounds\":%u,"
      "\"tasks_per_round\":%" PRIu64
      ",\"plain_ns_per_task\":%.2f,\"checked_ns_per_task\":%.2f,"
      "\"ratio\":%.4f,\"checked_allocs\":%" PRIu64
      ",\"checked_allocs_per_task\":%.6f}}\n",
      SIGRT_FAULT_INJECTION ? "true" : "false", redo.rounds,
      redo.tasks_per_round, redo.plain_ns_per_task, redo.checked_ns_per_task,
      redo.ratio, redo.checked_allocs, redo.checked_allocs_per_task);
  return 0;
}
