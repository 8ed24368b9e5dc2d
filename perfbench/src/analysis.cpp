#include "analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

namespace pb {
namespace {

using trace::Kind;

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Admission is estimated as body end minus the response's server_ns, which
/// the server stamps a little after the body returns; a worker preempted in
/// between makes admission look early by the preemption.  Stages that
/// depend on it may read this much below zero.
constexpr std::int64_t kSkewNs = 20'000;

}  // namespace

BatchLayers analyze_runs(const std::vector<trace::Span>& spans) {
  BatchLayers L;
  const std::vector<std::int64_t> self = trace::self_times(spans);
  std::unordered_set<std::uint64_t> parents;
  std::unordered_map<std::uint64_t, std::int64_t> spawn_end;  // (unit, key)
  struct Unit {
    const trace::Span* run = nullptr;
    const trace::Span* barrier = nullptr;
    std::int64_t last_body_end = 0;
    std::int64_t last_master_spawn_end = 0;
  };
  std::unordered_map<std::uint32_t, Unit> units;
  const auto uk = [](const trace::Span& s) {
    return static_cast<std::uint64_t>(s.unit) << 32 | s.key;
  };
  for (const trace::Span& s : spans) {
    if (s.parent != 0) parents.insert(s.parent);
    if (s.kind == Kind::Spawn) spawn_end[uk(s)] = s.t1;
    if (s.kind == Kind::Run) units[s.unit].run = &s;
    if (s.kind == Kind::Barrier) units[s.unit].barrier = &s;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const trace::Span& s = spans[i];
    Unit& u = units[s.unit];
    switch (s.kind) {
      case Kind::Spawn:
        // Self time: a spawn may run a body inline (the spawn throttle).
        L.spawn_us.push_back(us(self[i]));
        if (u.run != nullptr && s.parent == u.run->id) {
          u.last_master_spawn_end = std::max(u.last_master_spawn_end, s.t1);
        }
        break;
      case Kind::BodyAccurate:
      case Kind::BodyApprox: {
        const auto it = spawn_end.find(uk(s));
        // A body run inline by its own spawn call starts before the spawn
        // returns: it did not queue.
        if (it != spawn_end.end()) {
          L.queue_us.push_back(us(std::max<std::int64_t>(0, s.t0 - it->second)));
        }
        u.last_body_end = std::max(u.last_body_end, s.t1);
        L.body_self_s += static_cast<double>(self[i]) * 1e-9;
        if (parents.count(s.id) == 0) {
          (s.kind == Kind::BodyAccurate ? L.body_acc_us : L.body_app_us)
              .push_back(us(self[i]));
        }
        break;
      }
      case Kind::Help:
        L.help_self_s += static_cast<double>(self[i]) * 1e-9;
        L.help_self_us.push_back(us(self[i]));
        break;
      default:
        break;
    }
  }
  for (const auto& [id, u] : units) {
    if (u.run == nullptr || u.barrier == nullptr) continue;
    const std::int64_t run_ns = u.run->t1 - u.run->t0;
    ++L.runs;
    L.run_s += static_cast<double>(run_ns) * 1e-9;
    L.tail_us.push_back(us(u.barrier->t1 - u.last_body_end));
    // Closure: the spawn phase and the barrier cover the whole run.
    const std::int64_t spawn_phase = u.last_master_spawn_end - u.run->t0;
    const std::int64_t covered = spawn_phase + (u.barrier->t1 - u.barrier->t0);
    const double residual = std::fabs(static_cast<double>(run_ns - covered));
    L.closure_worst = std::max(L.closure_worst, residual / static_cast<double>(run_ns));
    if (residual > 5e3 + 0.01 * static_cast<double>(run_ns)) ++L.closure_fail;
  }
  return L;
}


Stages analyze_requests(const std::vector<trace::Span>& spans) {
  struct Join {
    const trace::Span* request = nullptr;
    const trace::Span* server = nullptr;
    const trace::Span* body = nullptr;
  };
  std::unordered_map<std::uint32_t, Join> by_unit;
  by_unit.reserve(spans.size() / 3);
  for (const trace::Span& s : spans) {
    Join& j = by_unit[s.unit];
    switch (s.kind) {
      case Kind::Request: j.request = &s; break;
      case Kind::Server: j.server = &s; break;
      case Kind::BodyAccurate:
      case Kind::BodyApprox: j.body = &s; break;
      default: break;
    }
  }
  Stages st;
  for (const auto& [unit, j] : by_unit) {
    if (j.body != nullptr) {
      const double d = us(j.body->t1 - j.body->t0);
      st.body_s += d * 1e-6;
      (j.body->kind == Kind::BodyAccurate ? st.body_acc_us : st.body_app_us).push_back(d);
    }
    if (j.request == nullptr || j.server == nullptr || j.body == nullptr) continue;
    ++st.complete;
    const std::int64_t in = j.server->t0 - j.request->t0;
    const std::int64_t queue = j.body->t0 - j.server->t0;
    const std::int64_t body = j.body->t1 - j.body->t0;
    const std::int64_t out = j.request->t1 - j.body->t1;
    // Closure: the stages are ordered (none negative beyond clock
    // granularity) and add up to the request span.
    const std::int64_t total = j.request->t1 - j.request->t0;
    const std::int64_t sum = in + queue + body + out;
    const bool ordered = in >= -kSkewNs && queue >= -kSkewNs && body >= 0 && out >= 0;
    if (!ordered || std::llabs(sum - total) > 1000 + total / 100) ++st.closure_fail;
    st.in_us.push_back(us(in));
    st.queue_us.push_back(us(queue));
    st.out_us.push_back(us(out));
  }
  return st;
}

double self_seconds(const std::vector<trace::Span>& spans, Kind kind) {
  const std::vector<std::int64_t> self = trace::self_times(spans);
  double s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].kind == kind) s += static_cast<double>(self[i]) * 1e-9;
  }
  return s;
}

std::vector<Metric> layer_metrics(const LayerFigures& f) {
  return {
      {"stage.submit_us", f.submit_us, "us"},
      {"stage.queue_us_p50", f.queue_us_p50, "us"},
      {"stage.queue_us_p99", f.queue_us_p99, "us"},
      {"stage.body_accurate_us", f.body_accurate_us, "us"},
      {"stage.complete_us", f.complete_us, "us"},
      {"core.busy_us_per_unit", f.busy_us_per_unit, "us"},
      {"core.body_share", f.body_share, "ratio"},
      {"core.help_self_share", f.help_self_share, "ratio"},
      {"core.steals_per_ktask", f.steals_per_ktask, "count"},
      {"core.inline_spawns_per_ktask", f.inline_spawns_per_ktask, "count"},
      {"core.handoffs_per_kunit", f.handoffs_per_kunit, "count"},
      {"policy.ratio_diff", f.ratio_diff, "ratio"},
      {"policy.inversion", f.inversion, "ratio"},
      {"policy.approx_share", f.approx_share, "ratio"},
      {"policy.dropped_share", f.dropped_share, "ratio"},
      {"dep.edges_per_task", f.dep_edges_per_task, "count"},
  };
}

}  // namespace pb
