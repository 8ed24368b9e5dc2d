// Batch workloads: closed loops of one program run after another.
//
//   listing1   the paper's Listing 1 — Sobel over a seeded 512x512 image,
//              one task per interior row with in(whole image)/out(row),
//              significance (i%9+1)/10, GTB at ratio 0.3, 3 workers,
//              wait_group per run.  Dependence tracking, GTB's spawn-time
//              buffer and the master-side spawn path do nearly all the work.
//   nested-dc  bisection quadrature of a seeded integrand to depth 14
//              (32767 tasks per run).  Interior tasks are pinned significant,
//              spawn two children from inside their body and wait_all; leaves
//              have an accurate and a cheaper approximate body with cyclic
//              significance.  LQH at ratio 0.5, 3 workers.  Worker-side
//              spawns, stealing, helping barriers and LQH's dequeue-time
//              decision do most of the work; no dependences, no GTB.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <limits>
#include <memory>
#include <vector>

#include "apps/kernels.hpp"
#include "analysis.hpp"
#include "checks.hpp"
#include "core/runtime.hpp"
#include "energy/meter.hpp"
#include "metrics/quality.hpp"
#include "support/image.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using sigrt::support::now_ns;
using trace::Kind;
using trace::Scope;
namespace kern = sigrt::apps::kern;

constexpr int kWarmupRuns = 5;

struct RunCheck {
  UnitCheck units;
  double quality_loss = 0.0;
  bool pass = false;
};

// --- listing1 ----------------------------------------------------------------

class Listing1 {
 public:
  static constexpr std::size_t kW = 512;
  static constexpr std::size_t kH = 512;
  /// GTB at ratio 0.3 keeps the PSNR of the synthetic input near 34 dB; a
  /// run below the floor fails even if every row matches a reference row.
  static constexpr double kPsnrFloorDb = 25.0;

  explicit Listing1(std::uint64_t seed)
      : img_(sigrt::support::synthetic_image(kW, kH, seed)),
        acc_(kW * kH, 0),
        app_(kW * kH, 0),
        blank_(kW * kH, 0),
        out_(kW * kH, 0),
        rt_({.workers = 3, .policy = sigrt::PolicyKind::GTB}) {
    for (std::size_t y = 1; y + 1 < kH; ++y) {
      kern::sobel_row_accurate(acc_.data(), img_.data(), kW, y, 1, kW - 1);
      kern::sobel_row_approx(app_.data(), img_.data(), kW, y, 1, kW - 1);
      std::memset(blank_.data() + y * kW + 1, 0xA5, kW - 2);
    }
    group_ = rt_.create_group("sobel", 0.3);
  }

  sigrt::Runtime& runtime() { return rt_; }
  sigrt::GroupId group() const { return group_; }
  void prepare() { std::memcpy(out_.data(), blank_.data(), out_.size()); }
  std::uint64_t spans_per_run() const { return 2 * (kH - 2) + 2; }

  void run(std::uint32_t unit, bool traced) {
    const std::uint8_t* in = img_.data();
    std::uint8_t* res = out_.data();
    for (std::size_t i = 1; i + 1 < kH; ++i) {
      const auto key = static_cast<std::uint32_t>(i);
      Scope s(traced, Kind::Spawn, unit, key);
      rt_.spawn(sigrt::task([=] {
                  Scope b(traced, Kind::BodyAccurate, unit, key);
                  kern::sobel_row_accurate(res, in, kW, i, 1, kW - 1);
                })
                    .approx([=] {
                      Scope b(traced, Kind::BodyApprox, unit, key);
                      kern::sobel_row_approx(res, in, kW, i, 1, kW - 1);
                    })
                    .significance(static_cast<double>(i % 9 + 1) / 10.0)
                    .group(group_)
                    .in(in, kW * kH)
                    .out(res + i * kW, kW));
    }
    Scope b(traced, Kind::Barrier, unit, 0);
    rt_.wait_group(group_);
  }

  RunCheck check() {
    RunCheck c;
    c.units = check_rows(out_.data(), acc_.data(), app_.data(), kW, kH);
    const double psnr = sigrt::metrics::psnr_db({acc_.data(), acc_.size()},
                                                {out_.data(), out_.size()});
    c.quality_loss = sigrt::metrics::inverse_psnr(psnr);
    c.pass = c.units.wrong == 0 && psnr >= kPsnrFloorDb;
    return c;
  }

 private:
  sigrt::support::Image img_;
  std::vector<std::uint8_t> acc_;
  std::vector<std::uint8_t> app_;
  std::vector<std::uint8_t> blank_;
  std::vector<std::uint8_t> out_;
  sigrt::GroupId group_ = 0;
  sigrt::Runtime rt_;  // last: workers stop before the buffers they write go
};

// --- nested-dc ---------------------------------------------------------------

/// 2 + sum_k a_k sin(b_k x + c_k) on [0, 1], coefficients from the seed.
struct Integrand {
  static constexpr int kTerms = 4;
  double a[kTerms];
  double b[kTerms];
  double c[kTerms];

  explicit Integrand(std::uint64_t seed) {
    sigrt::support::Xoshiro256 rng(seed ^ 0x9dcull);
    for (int k = 0; k < kTerms; ++k) {
      a[k] = rng.uniform(0.5, 1.5);
      b[k] = rng.uniform(1.0, 40.0);
      c[k] = rng.uniform(0.0, 6.283185307179586);
    }
  }
  [[nodiscard]] double operator()(double x) const noexcept {
    double s = 2.0;
    for (int k = 0; k < kTerms; ++k) s += a[k] * std::sin(b[k] * x + c[k]);
    return s;
  }
};

class NestedDc {
 public:
  static constexpr int kDepth = 14;
  static constexpr std::uint32_t kLeaves = 1u << kDepth;
  static constexpr int kAccuratePanels = 48;  // composite Simpson
  /// The approximate leaf (one midpoint) on half the leaves costs about
  /// 1e-8 relative error; a missing or wrong leaf costs far more.
  static constexpr double kMaxRelError = 1e-6;

  explicit NestedDc(std::uint64_t seed)
      : f_(seed),
        acc_(kLeaves),
        app_(kLeaves),
        out_(kLeaves),
        rt_({.workers = 3, .policy = sigrt::PolicyKind::LQH}) {
    for (std::uint32_t j = 0; j < kLeaves; ++j) {
      acc_[j] = leaf_accurate(j);
      app_[j] = leaf_approx(j);
      reference_ += acc_[j];
    }
    group_ = rt_.create_group("quad", 0.5);
  }

  sigrt::Runtime& runtime() { return rt_; }
  sigrt::GroupId group() const { return group_; }
  void prepare() {
    std::fill(out_.begin(), out_.end(), std::numeric_limits<double>::quiet_NaN());
  }
  std::uint64_t spans_per_run() const { return 5ull * kLeaves + 2; }

  void run(std::uint32_t unit, bool traced) {
    spawn_node(1, unit, traced);
    Scope b(traced, Kind::Barrier, unit, 0);
    rt_.wait_all();
  }

  RunCheck check() {
    RunCheck c;
    c.units = check_leaves(out_.data(), acc_.data(), app_.data(), kLeaves);
    double sum = 0.0;
    for (const double v : out_) sum += v;
    c.quality_loss = relative_error(sum, reference_);
    c.pass = c.units.wrong == 0 && c.quality_loss <= kMaxRelError;
    return c;
  }

 private:
  [[nodiscard]] double leaf_accurate(std::uint32_t j) const noexcept {
    const double h = 1.0 / kLeaves;
    const double lo = j * h;
    const double step = h / kAccuratePanels;
    double s = f_(lo) + f_(lo + h);
    for (int k = 1; k < kAccuratePanels; ++k) s += (k % 2 ? 4.0 : 2.0) * f_(lo + k * step);
    return s * step / 3.0;
  }
  [[nodiscard]] double leaf_approx(std::uint32_t j) const noexcept {
    const double h = 1.0 / kLeaves;
    return f_((j + 0.5) * h) * h;
  }

  /// Heap numbering: node 1 is the root, node n has children 2n and 2n+1,
  /// and nodes [kLeaves, 2 kLeaves) are the leaves.
  void spawn_node(std::uint32_t node, std::uint32_t unit, bool traced) {
    Scope s(traced, Kind::Spawn, unit, node);
    if (node >= kLeaves) {
      const std::uint32_t j = node - kLeaves;
      rt_.spawn(sigrt::task([this, j, unit, traced] {
                  Scope b(traced, Kind::BodyAccurate, unit, j + kLeaves);
                  out_[j] = leaf_accurate(j);
                })
                    .approx([this, j, unit, traced] {
                      Scope b(traced, Kind::BodyApprox, unit, j + kLeaves);
                      out_[j] = leaf_approx(j);
                    })
                    .significance(static_cast<double>(j % 9 + 1) / 10.0)
                    .group(group_));
      return;
    }
    rt_.spawn(sigrt::task([this, node, unit, traced] {
                Scope b(traced, Kind::BodyAccurate, unit, node);
                spawn_node(2 * node, unit, traced);
                spawn_node(2 * node + 1, unit, traced);
                Scope h(traced, Kind::Help, unit, node);
                rt_.wait_all();
              })
                  .significance(1.0)
                  .group(group_));
  }

  Integrand f_;
  std::vector<double> acc_;
  std::vector<double> app_;
  std::vector<double> out_;
  double reference_ = 0.0;
  sigrt::GroupId group_ = 0;
  sigrt::Runtime rt_;  // last: workers stop before the buffers they write go
};

// --- the closed-loop driver --------------------------------------------------

struct RunRecord {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  double mj = 0.0;
  RunCheck check;
  /// Table 2 terms and the policy's outcome shares, from the GroupReport.
  double ratio_diff = 0.0;
  double inversion = 0.0;
  double approx_share = 0.0;
  double dropped_share = 0.0;
  bool traced_phase = false;
  int seg = 0;
};

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs `Program` (Listing1 or NestedDc) in a closed loop.  A program
/// provides runtime(), group(), prepare() (resets the output so that a unit
/// no body wrote fails the check), run(unit, traced) (the timed part: every
/// spawn of one program run and the barrier that ends it), check(), and
/// spans_per_run() (spans one traced run records, for the span budget).
template <class Program>
Result run_batch(const Options& o, const char* label) {
  Result r;
  std::vector<double> setups;
  std::vector<RunRecord> runs;
  runs.reserve(1 << 16);
  std::vector<trace::Span> spans;
  CoreDeltas d;
  unsigned workers = 0;
  std::uint32_t unit = 1;
  const auto seg_ns = static_cast<std::int64_t>(o.seconds * 1e9 / kSegments);
  for (int seg = 0; seg < kSegments; ++seg) {
    const std::int64_t t0 = now_ns();
    auto prog = std::make_unique<Program>(o.seed);
    sigrt::Runtime& rt = prog->runtime();
    for (int w = 0; w < kWarmupRuns; ++w) {
      prog->prepare();
      prog->run(0, false);
      (void)prog->check();
      rt.group(prog->group()).reset_stats();
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (seg == 0) {
      workers = rt.config().workers;
      r.stamp.emplace_back("workers", std::to_string(workers));
      r.stamp.emplace_back("energy", rt.meter().name());
      r.stamp.emplace_back("policy", rt.policy_name());
    }
    const bool traced_seg = o.trace && seg >= kSegments / 2;
    if (traced_seg) trace::arm(kTraceThreads, kSpansPerThread);
    const CoreCounters c0 = core_counters(rt);

    // Closed loop: the next run starts when the previous one is checked.
    const std::int64_t end = now_ns() + seg_ns;
    for (; now_ns() < end; ++unit) {
      const bool traced = traced_seg && trace::recorded() + prog->spans_per_run() <
                                            kSpanBudget / (kSegments - kSegments / 2);
      prog->prepare();
      RunRecord rec;
      rec.traced_phase = traced_seg;
      rec.seg = seg;
      const sigrt::energy::Scope energy(rt.meter());
      rec.t0 = now_ns();
      {
        Scope run_span(traced, Kind::Run, unit, 0);
        prog->run(unit, traced);
      }
      rec.t1 = now_ns();
      rec.mj = energy.joules() * 1e3;
      rec.check = prog->check();
      const sigrt::GroupReport rep = rt.group_report(prog->group());
      const double tasks = static_cast<double>(rep.accurate + rep.approximate + rep.dropped);
      rec.ratio_diff = rep.ratio_diff();
      rec.inversion = rep.inversion_fraction;
      rec.approx_share = per(static_cast<double>(rep.approximate), tasks);
      rec.dropped_share = per(static_cast<double>(rep.dropped), tasks);
      rt.group(prog->group()).reset_stats();
      runs.push_back(rec);
    }
    if (traced_seg) {
      d.add(c0, core_counters(rt));
      const std::vector<trace::Span> seg_spans = trace::collect();
      spans.insert(spans.end(), seg_spans.begin(), seg_spans.end());
    }
  }
  const std::string meter_name = r.stamp[1].second;

  // End-to-end metrics: untraced runs only.  Timings are taken per segment
  // and the median over segments is reported, so a segment disturbed from
  // outside (CPU steal on a shared host) does not decide the result.
  std::vector<double> run_ms, loss, traced_ms;
  std::vector<double> seg_p50, seg_p90, seg_rate, seg_mj;
  std::size_t min_beyond = std::numeric_limits<std::size_t>::max();
  std::uint64_t units_acc = 0, units_all = 0, ok = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    std::vector<double> seg_ms, seg_run_mj;
    double ok_s = 0.0;
    std::uint64_t seg_ok = 0;
    for (const RunRecord& rec : runs) {
      if (rec.seg != seg || rec.traced_phase) continue;
      seg_ms.push_back(ms(rec.t1 - rec.t0));
      seg_run_mj.push_back(rec.mj);
      if (rec.check.pass) {
        ++seg_ok;
        ok_s += static_cast<double>(rec.t1 - rec.t0) * 1e-9;
      }
    }
    if (seg_ms.empty()) continue;
    seg_p50.push_back(percentile(seg_ms, 0.5));
    seg_p90.push_back(percentile(seg_ms, 0.9));
    seg_rate.push_back(per(static_cast<double>(seg_ok), ok_s));
    seg_mj.push_back(median(seg_run_mj));
    min_beyond = std::min(min_beyond, samples_beyond(seg_ms.size(), 0.9));
  }
  for (const RunRecord& rec : runs) {
    ++r.attempted;
    if (!rec.check.pass) ++r.failed;
    if (rec.traced_phase) {
      traced_ms.push_back(ms(rec.t1 - rec.t0));
      continue;
    }
    run_ms.push_back(ms(rec.t1 - rec.t0));
    loss.push_back(rec.check.quality_loss);
    units_acc += rec.check.units.accurate;
    units_all += rec.check.units.accurate + rec.check.units.approx + rec.check.units.wrong;
    if (rec.check.pass) ++ok;
  }
  const std::size_t n = run_ms.size();
  const double p50 = median(seg_p50);
  const double p90 = median(seg_p90);
  const double rss = peak_rss_mb();
  const double setup = median(setups);
  r.e2e = {
      {"latency_ms_p50", p50, "ms"},
      {"throughput_per_s", median(seg_rate), "1/s"},
      {"energy_mj", median(seg_mj), "mJ"},
      {"accurate_share", per(static_cast<double>(units_acc), static_cast<double>(units_all)), "ratio"},
      {"success_share", per(static_cast<double>(ok), static_cast<double>(n)), "ratio"},
      {"setup_s", setup, "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  r.note("%s: %zu untraced runs in %zu segments, closed loop, %u workers", label, n,
         seg_p50.size(), workers);
  r.note("  run_ms_p50      %10.4f ms   median over segments of each one's p50 (%s)", p50,
         join(seg_p50).c_str());
  r.note("  run_ms_p90      %10.4f ms   median over segments (%s); each rests on >= %zu samples beyond",
         p90, join(seg_p90).c_str(), min_beyond);
  r.note("  throughput      %10.4f runs/s median over segments of correct runs / run time", median(seg_rate));
  r.note("  energy_mj       %10.4f mJ   per run, median over segments, meter backend %s",
         median(seg_mj), meter_name.c_str());
  r.note("  quality_loss    %10.4g ratio median per run", median(loss));
  r.note("  failed_share    %10.4f ratio (%llu of %llu runs failed their check)",
         per(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
         static_cast<unsigned long long>(r.failed),
         static_cast<unsigned long long>(r.attempted));
  r.note("  setup_s         %10.4f s    median of %zu set-ups (min %.4f, max %.4f)", setup,
         setups.size(), *std::min_element(setups.begin(), setups.end()),
         *std::max_element(setups.begin(), setups.end()));
  r.note("  peak_rss_mb     %10.2f MB", rss);
  if (!o.trace) return r;

  // Per-layer metrics: spans and counters of the traced runs.
  const BatchLayers L = analyze_runs(spans);
  double ratio_diff = 0.0, inversion = 0.0, approx_share = 0.0, dropped_share = 0.0;
  double traced_runs = 0.0;
  for (const RunRecord& rec : runs) {
    if (!rec.traced_phase) continue;
    ratio_diff += rec.ratio_diff;
    inversion += rec.inversion;
    approx_share += rec.approx_share;
    dropped_share += rec.dropped_share;
    traced_runs += 1.0;
  }
  const double wall = L.run_s * workers;
  r.layer = layer_metrics({
      .submit_us = median(L.spawn_us),
      .queue_us_p50 = percentile(L.queue_us, 0.5),
      .queue_us_p99 = percentile(L.queue_us, 0.99),
      .body_accurate_us = median(L.body_acc_us),
      .complete_us = median(L.tail_us),
      .busy_us_per_unit = per(d.busy_s * 1e6, traced_runs),
      .body_share = per(L.body_self_s, wall),
      .help_self_share = per(L.help_self_s, wall),
      .steals_per_ktask = per(1e3 * d.steals, d.spawned),
      .inline_spawns_per_ktask = per(1e3 * d.inline_spawns, d.spawned),
      .handoffs_per_kunit = per(1e3 * d.handoffs, traced_runs),
      .ratio_diff = per(ratio_diff, traced_runs),
      .inversion = per(inversion, traced_runs),
      .approx_share = per(approx_share, traced_runs),
      .dropped_share = per(dropped_share, traced_runs),
      .dep_edges_per_task = per(d.dep_edges, d.spawned),
  });
  const double traced_p50 = median(traced_ms);
  r.note("traced: %zu runs with spans (%zu spans, %llu dropped in the last segment), %zu runs in the traced half",
         L.runs, spans.size(), static_cast<unsigned long long>(trace::dropped()),
         traced_ms.size());
  r.note("  core.spawn_us          %10.3f us  median Runtime::spawn (n=%zu)", median(L.spawn_us), L.spawn_us.size());
  r.note("  core.queue_us          %10.3f us  p50, p99 %.3f us (n=%zu)", percentile(L.queue_us, 0.5),
         percentile(L.queue_us, 0.99), L.queue_us.size());
  r.note("  core.barrier_tail_us   %10.3f us  median last body end -> barrier return", median(L.tail_us));
  r.note("  core.help_self_us      %10.3f us  median per in-task wait_all (n=%zu)", median(L.help_self_us),
         L.help_self_us.size());
  r.note("  core.body_share        %10.4f", per(L.body_self_s, wall));
  r.note("  apps.accurate_body_us  %10.3f us  (n=%zu)", median(L.body_acc_us), L.body_acc_us.size());
  r.note("  apps.approx_body_us    %10.3f us  (n=%zu)", median(L.body_app_us), L.body_app_us.size());
  r.note("  energy.busy_ms_per_run %10.4f ms", per(d.busy_s * 1e3, traced_runs));
  r.note("  closure: spawn phase + barrier = run within 5 us + 1%% on %zu of %zu runs (worst %.4f; needs 99.9%%)",
         L.runs - L.closure_fail, L.runs, L.closure_worst);
  r.note("  tracing overhead: run_ms_p50 %.4f traced vs %.4f untraced (%+.1f%%)", traced_p50, p50,
         100.0 * per(traced_p50 - p50, p50));
  if (!closes(L.runs, L.closure_fail)) r.valid = false;
  if (!o.trace_out.empty() && !trace::write_chrome(spans, o.trace_out, kChromeEvents)) {
    r.note("could not write %s", o.trace_out.c_str());
  }
  return r;
}

}  // namespace

Result run_listing1(const Options& o) { return run_batch<Listing1>(o, "listing1"); }
Result run_nested_dc(const Options& o) { return run_batch<NestedDc>(o, "nested-dc"); }

}  // namespace pb
