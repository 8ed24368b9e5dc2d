// Dependent-task throughput gate: spawn/complete cost when every task
// carries an in()/out() footprint and the dependence tracker is on the
// critical path.
//
// Two workload shapes, chosen to stress the two tracker extremes:
//
//   * chain — C independent chains, each task inout() on its chain's
//     private block: pure pipeline parallelism, one predecessor per task,
//     maximal register/complete rate per block.
//   * stencil — a G x G tile grid swept repeatedly; each task reads its
//     four halo neighbours (in) and updates its own tile (inout), the
//     jacobi/fluidanimate dependence pattern: 5-block footprints, RAW +
//     WAR + WAW edges crossing stripe boundaries.
//
// Each shape runs at 1/4/8 workers.  Like micro_spawn, the driver counts
// heap allocations through an instrumented global operator new and warms
// up until a full round allocates nothing, so the steady-state
// allocs-per-task column gates the tracker's reset-not-free contract for
// small (<= 8-block) footprints.  Output is one JSON line
// (BENCH_micro_deps.json in CI); any CLI arguments are accepted and
// ignored for harness compatibility.
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_counter.hpp"
#include "core/sigrt.hpp"
#include "support/timer.hpp"

namespace {

constexpr std::size_t kBlockBytes = 64;

/// One tracker block per logical cell: dependencies are exactly the ones the
/// shape intends, never accidental same-block aliasing.
struct alignas(kBlockBytes) Cell {
  unsigned char bytes[kBlockBytes];
};

struct DepRecord {
  const char* shape = "";
  unsigned workers = 0;
  std::uint64_t tasks = 0;
  std::uint64_t allocs = 0;
  double allocs_per_task = 0.0;
  std::uint64_t dep_edges = 0;
  double wall_s = 0.0;
  double tasks_per_sec = 0.0;
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

template <typename Round>
DepRecord measure(const char* shape, unsigned workers, std::size_t cell_count,
                  Round round, int max_warmup) {
  sigrt::RuntimeConfig c;
  c.workers = workers;
  c.policy = sigrt::PolicyKind::Agnostic;
  c.block_bytes = kBlockBytes;
  c.record_task_log = false;
  sigrt::Runtime rt(c);
  std::vector<Cell> cells(cell_count);

  // Warm-up: populate the task pool, the tracker's stripe tables and every
  // reader/dependents buffer to the workload's high-water mark, repeating
  // until a full round allocates nothing (true steady state).
  for (int r = 0; r < max_warmup; ++r) {
    const std::uint64_t before = alloc_counter::count();
    (void)round(rt, cells);
    if (r > 0 && alloc_counter::count() == before) break;
  }

  const std::uint64_t e0 = rt.stats().dep_edges;
  const std::uint64_t a0 = alloc_counter::count();
  const std::int64_t t0 = sigrt::support::now_ns();
  const std::uint64_t tasks = round(rt, cells);
  const std::int64_t t1 = sigrt::support::now_ns();
  const std::uint64_t a1 = alloc_counter::count();

  DepRecord r;
  r.shape = shape;
  r.workers = workers;
  r.tasks = tasks;
  r.allocs = a1 - a0;
  r.allocs_per_task = static_cast<double>(r.allocs) / static_cast<double>(tasks);
  r.dep_edges = rt.stats().dep_edges - e0;
  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (r.wall_s > 0) {
    r.tasks_per_sec = static_cast<double>(tasks) / r.wall_s;
  }
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
  }

  std::printf("{\"bench\":\"micro_deps\",\"block_bytes\":%zu,\"cells\":[",
              kBlockBytes);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DepRecord& r = records[i];
    std::printf(
        "%s{\"shape\":\"%s\",\"workers\":%u,\"tasks\":%" PRIu64
        ",\"allocs\":%" PRIu64
        ",\"allocs_per_task\":%.6f,\"dep_edges\":%" PRIu64
        ",\"wall_s\":%.6f,\"tasks_per_sec\":%.1f}",
        i == 0 ? "" : ",", r.shape, r.workers, r.tasks, r.allocs,
        r.allocs_per_task, r.dep_edges, r.wall_s, r.tasks_per_sec);
  }
  std::printf("]}\n");
  return 0;
}
