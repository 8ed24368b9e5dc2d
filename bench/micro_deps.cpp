// Dependent-task throughput gate: spawn/complete cost when every task
// carries an in()/out() footprint and the dependence tracker is on the
// critical path.
//
// Three workload shapes, chosen to stress the tracker's extremes:
//
//   * chain — C independent chains, each task inout() on its chain's
//     private cell: pure pipeline parallelism, one predecessor per task,
//     maximal register/complete rate per cell.
//   * stencil — a G x G tile grid swept repeatedly; each task reads its
//     four halo neighbours (in) and updates its own tile (inout): 5-cell
//     footprints, RAW + WAR + WAW edges.
//   * wide_read_<N>k — listing1's footprint: each task reads one shared
//     N KiB buffer (in) and writes its own disjoint 512 B row (out).  No
//     task depends on another, so the cell prices a wide clause; the 4k
//     and 256k cells show whether that price grows with the clause.
//
// Each shape runs at 1/4/8 workers.  Like micro_spawn, the driver counts
// heap allocations through an instrumented global operator new and warms
// up until a full round allocates nothing (or the warm-up cap is reached).
// A round takes 5-16 ms, so each cell then times kTimedRounds of them:
// `tasks_per_sec` and `wall_s` are the median round's, while `tasks`,
// `allocs` and `dep_edges` sum over the timed rounds.  Summed over seven
// rounds, `allocs` records what the timed rounds allocated — task slabs
// carved at a new in-flight high-water included — rather than gating zero.
// Output is one JSON line (BENCH_micro_deps.json in CI); any CLI
// arguments are accepted and ignored for harness compatibility.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "core/sigrt.hpp"
#include "support/timer.hpp"

namespace {

constexpr std::size_t kCellBytes = 64;
/// Timed rounds per cell (odd: the median is a real round).
constexpr unsigned kTimedRounds = 7;

/// One cache line per logical cell of the chain and stencil shapes.
struct alignas(kCellBytes) Cell {
  unsigned char bytes[kCellBytes];
};

struct DepRecord {
  const char* shape = "";
  unsigned workers = 0;
  unsigned rounds = 0;
  std::uint64_t tasks = 0;
  std::uint64_t allocs = 0;
  double allocs_per_task = 0.0;
  std::uint64_t dep_edges = 0;
  double wall_s = 0.0;         ///< the median round's
  double tasks_per_sec = 0.0;  ///< the median round's
};

// C chains built breadth-first (round-robin over chains per step) so the
// spawner keeps all chains live at once; a barrier every wave bounds the
// in-flight window.
constexpr std::size_t kChains = 32;
constexpr std::size_t kChainSteps = 64;   // tasks per chain per wave
constexpr std::size_t kChainWaves = 8;

std::uint64_t chain_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  for (std::size_t w = 0; w < kChainWaves; ++w) {
    for (std::size_t s = 0; s < kChainSteps; ++s) {
      for (std::size_t c = 0; c < kChains; ++c) {
        rt.spawn(sigrt::task([] {}).inout(&cells[c]));
      }
    }
    rt.wait_all();
  }
  return kChainWaves * kChainSteps * kChains;
}

// G x G torus stencil: sweep after sweep, each tile task reads its four
// neighbours' previous values and rewrites its own tile.
constexpr std::size_t kGrid = 16;
constexpr std::size_t kSweeps = 32;
constexpr std::size_t kSweepsPerBarrier = 8;

std::uint64_t stencil_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  auto at = [&](std::size_t y, std::size_t x) -> Cell* {
    return &cells[y * kGrid + x];
  };
  for (std::size_t s = 0; s < kSweeps; ++s) {
    for (std::size_t y = 0; y < kGrid; ++y) {
      for (std::size_t x = 0; x < kGrid; ++x) {
        rt.spawn(sigrt::task([] {})
                     .in(at((y + kGrid - 1) % kGrid, x))
                     .in(at((y + 1) % kGrid, x))
                     .in(at(y, (x + kGrid - 1) % kGrid))
                     .in(at(y, (x + 1) % kGrid))
                     .inout(at(y, x)));
      }
    }
    if ((s + 1) % kSweepsPerBarrier == 0) rt.wait_all();
  }
  rt.wait_all();
  return kSweeps * kGrid * kGrid;
}

// Wide read: kWideTasks row tasks per wave behind one barrier, one
// spawner.  `cells` holds the shared input, then the output rows.
constexpr std::size_t kWideTasks = 510;  // listing1's rows per image
constexpr std::size_t kWideWaves = 16;
constexpr std::size_t kRowBytes = 512;

template <std::size_t kReadBytes>
std::size_t wide_read_cells() {
  return (kReadBytes + kWideTasks * kRowBytes) / kCellBytes;
}

template <std::size_t kReadBytes>
std::uint64_t wide_read_round(sigrt::Runtime& rt, std::vector<Cell>& cells) {
  const unsigned char* in = cells.front().bytes;
  unsigned char* rows = cells[kReadBytes / kCellBytes].bytes;
  for (std::size_t w = 0; w < kWideWaves; ++w) {
    for (std::size_t t = 0; t < kWideTasks; ++t) {
      rt.spawn(sigrt::task([] {})
                   .in(in, kReadBytes)
                   .out(rows + t * kRowBytes, kRowBytes));
    }
    rt.wait_all();
  }
  return kWideWaves * kWideTasks;
}

template <typename Round>
DepRecord measure(const char* shape, unsigned workers, std::size_t cell_count,
                  Round round, int max_warmup) {
  sigrt::RuntimeConfig c;
  c.workers = workers;
  c.policy = sigrt::PolicyKind::Agnostic;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  std::vector<Cell> cells(cell_count);

  // Warm-up: populate the task pool, the tracker's region slots, reader
  // lists and edge records to the workload's high-water mark, repeating
  // until a full round allocates nothing (true steady state).
  for (int r = 0; r < max_warmup; ++r) {
    const std::uint64_t before = alloc_counter::count();
    (void)round(rt, cells);
    if (r > 0 && alloc_counter::count() == before) break;
  }

  DepRecord r;
  r.shape = shape;
  r.workers = workers;
  r.rounds = kTimedRounds;
  // (wall ns, tasks) per timed round; the scratch is reserved before the
  // first round so the alloc count sees only the runtime.
  std::vector<std::pair<std::int64_t, std::uint64_t>> timed;
  timed.reserve(kTimedRounds);
  const std::uint64_t e0 = rt.stats().dep_edges;
  const std::uint64_t a0 = alloc_counter::count();
  for (unsigned k = 0; k < kTimedRounds; ++k) {
    const std::int64_t t0 = sigrt::support::now_ns();
    const std::uint64_t tasks = round(rt, cells);
    timed.emplace_back(sigrt::support::now_ns() - t0, tasks);
  }
  r.allocs = alloc_counter::count() - a0;
  r.dep_edges = rt.stats().dep_edges - e0;
  for (const auto& [ns, tasks] : timed) r.tasks += tasks;
  r.allocs_per_task =
      static_cast<double>(r.allocs) / static_cast<double>(r.tasks);

  // Median round by rate; its wall time goes with it.
  const auto rate = [](const std::pair<std::int64_t, std::uint64_t>& t) {
    return t.first > 0 ? static_cast<double>(t.second) * 1e9 /
                             static_cast<double>(t.first)
                       : 0.0;
  };
  std::sort(timed.begin(), timed.end(), [&](const auto& a, const auto& b) {
    return rate(a) < rate(b);
  });
  const auto& median = timed[timed.size() / 2];
  r.wall_s = static_cast<double>(median.first) * 1e-9;
  r.tasks_per_sec = rate(median);
  return r;
}

}  // namespace

int main(int, char**) {
  constexpr unsigned kWorkerSweep[] = {1, 4, 8};
  std::vector<DepRecord> records;
  for (unsigned w : kWorkerSweep) {
    records.push_back(measure("chain", w, kChains, chain_round,
                              /*max_warmup=*/6));
    records.push_back(measure("stencil", w, kGrid * kGrid, stencil_round,
                              /*max_warmup=*/6));
    records.push_back(measure("wide_read_4k", w, wide_read_cells<4096>(),
                              wide_read_round<4096>, /*max_warmup=*/6));
    records.push_back(measure("wide_read_256k", w,
                              wide_read_cells<256 * 1024>(),
                              wide_read_round<256 * 1024>, /*max_warmup=*/6));
  }

  std::printf("{\"bench\":\"micro_deps\",\"cells\":[");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DepRecord& r = records[i];
    std::printf(
        "%s{\"shape\":\"%s\",\"workers\":%u,\"rounds\":%u,\"tasks\":%" PRIu64
        ",\"allocs\":%" PRIu64
        ",\"allocs_per_task\":%.6f,\"dep_edges\":%" PRIu64
        ",\"wall_s\":%.6f,\"tasks_per_sec\":%.1f}",
        i == 0 ? "" : ",", r.shape, r.workers, r.rounds, r.tasks, r.allocs,
        r.allocs_per_task, r.dep_edges, r.wall_s, r.tasks_per_sec);
  }
  std::printf("]}\n");
  return 0;
}
