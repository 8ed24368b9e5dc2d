// Per-layer analysis of a traced run: joins spans into units and splits
// each unit's time into stages, with a closure check that the stages cover
// the unit's end-to-end time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/runtime.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pb {

/// A traced run passes its closure check when at least this share of its
/// units close: a thread preempted between two adjacent spans opens a gap
/// the spans cannot see.
inline constexpr double kClosureShare = 0.999;

/// True when enough units closed (see kClosureShare).
[[nodiscard]] inline bool closes(std::size_t units, std::size_t failed) {
  return units > 0 &&
         static_cast<double>(units - failed) >= kClosureShare * static_cast<double>(units);
}

/// Per-layer view of traced program runs (units of kind Run).
struct BatchLayers {
  std::vector<double> spawn_us, queue_us, tail_us, help_self_us;
  std::vector<double> body_acc_us, body_app_us;  ///< leaf bodies (no children)
  double body_self_s = 0.0;
  double help_self_s = 0.0;
  double run_s = 0.0;
  std::size_t runs = 0;
  std::size_t closure_fail = 0;
  double closure_worst = 0.0;  ///< largest |residual| / run time
};

/// Joins Run, Spawn, Body, Help and Barrier spans by unit.  A task's queue
/// time is its body start minus the end of the spawn with the same (unit,
/// key); the barrier tail is the last body end to the barrier's return.
/// Closure: per run, the spawn phase (run start to the last spawn issued
/// from the run's own thread) plus the barrier must equal the run within
/// 5 us + 1%.
[[nodiscard]] BatchLayers analyze_runs(const std::vector<trace::Span>& spans);

/// Stages of traced requests (units with Request, Server and Body spans).
struct Stages {
  std::vector<double> in_us, queue_us, out_us, body_acc_us, body_app_us;
  double body_s = 0.0;
  std::size_t complete = 0;      ///< requests with every span present
  std::size_t closure_fail = 0;  ///< stages negative or not summing to the span
};

/// Splits each request into net in (send, the Request start, to admission,
/// the Server start), queue (Server start to Body start), body, and net out
/// (Body end to Request end, the response read).  Closure: no stage negative
/// beyond 20 us (the error of the admission estimate when a worker is
/// preempted between body end and the server's completion stamp), and the
/// stages sum to the Request span within 1 us + 1%.
[[nodiscard]] Stages analyze_requests(const std::vector<trace::Span>& spans);

/// Summed self time, in seconds, of the spans of kind `kind`.
[[nodiscard]] double self_seconds(const std::vector<trace::Span>& spans, trace::Kind kind);

/// Runtime and pool counters at one instant.
struct CoreCounters {
  sigrt::RuntimeStats rt;
  sigrt::PoolStats pool;
};

[[nodiscard]] inline CoreCounters core_counters(sigrt::Runtime& rt) {
  return {rt.stats(), rt.pool_stats()};
}

/// Runtime and pool counter deltas, summed over the traced segments.
struct CoreDeltas {
  double spawned = 0, steals = 0, inline_spawns = 0, dep_edges = 0, busy_s = 0, handoffs = 0;

  void add(const CoreCounters& a, const CoreCounters& b) {
    spawned += static_cast<double>(b.rt.spawned - a.rt.spawned);
    steals += static_cast<double>(b.rt.steals - a.rt.steals);
    inline_spawns += static_cast<double>(b.rt.inline_spawns - a.rt.inline_spawns);
    dep_edges += static_cast<double>(b.rt.dep_edges - a.rt.dep_edges);
    busy_s += b.rt.busy_s - a.rt.busy_s;
    handoffs += static_cast<double>(b.pool.handoffs - a.pool.handoffs);
  }
};

/// The per-layer metrics of BENCHMARK.json, which every workload reports.
/// Each is taken from the workload's own spans and from the runtime's and
/// server's counters; README.md maps them to the layer they measure on each
/// workload.  A "unit" is one program run or one request.
struct LayerFigures {
  double submit_us = 0;         ///< spawn self time | send -> admission
  double queue_us_p50 = 0;      ///< spawn return | admission -> body start
  double queue_us_p99 = 0;
  double body_accurate_us = 0;  ///< accurate leaf body or handler
  double complete_us = 0;       ///< last body end -> barrier | body end -> read
  double busy_us_per_unit = 0;  ///< RuntimeStats::busy_s per unit
  double body_share = 0;        ///< body self time / (workers x wall)
  double help_self_share = 0;   ///< in-task wait_all self time / (workers x wall)
  double steals_per_ktask = 0;
  double inline_spawns_per_ktask = 0;
  double handoffs_per_kunit = 0;
  double ratio_diff = 0;        ///< |requested - provided accurate ratio|
  double inversion = 0;         ///< GroupReport::inversion_fraction
  double approx_share = 0;      ///< units the policy ran approximately
  double dropped_share = 0;     ///< units dropped without any body
  double dep_edges_per_task = 0;
};

[[nodiscard]] std::vector<Metric> layer_metrics(const LayerFigures& f);

}  // namespace pb
