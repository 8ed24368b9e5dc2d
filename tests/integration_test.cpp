// Cross-module integration tests: full app pipelines exercising policies,
// dependence tracking, energy accounting and quality metrics together.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/dct.hpp"
#include "apps/kmeans.hpp"
#include "apps/sobel.hpp"
#include "core/sigrt.hpp"
#include "metrics/quality.hpp"

namespace {

using namespace sigrt::apps;

TEST(Integration, AllPoliciesProduceFiniteMeasurements) {
  for (const Variant v :
       {Variant::Accurate, Variant::GTB, Variant::GTBMaxBuffer, Variant::LQH,
        Variant::Perforated}) {
    sobel::Options o;
    o.width = 96;
    o.height = 96;
    o.common.variant = v;
    o.common.degree = Degree::Medium;
    o.common.workers = 2;
    const auto r = sobel::run(o);
    EXPECT_GT(r.time_s, 0.0) << to_string(v);
    EXPECT_GE(r.energy_j, 0.0) << to_string(v);
    EXPECT_GE(r.quality, 0.0) << to_string(v);
    EXPECT_GT(r.tasks_total, 0u) << to_string(v);
  }
}

TEST(Integration, ApproximationReducesWorkAcrossPolicies) {
  // Busy time (and with the model meter, energy) must shrink when tasks are
  // approximated: approx bodies are strictly cheaper.
  auto run_with = [](Variant v, Degree d) {
    dct::Options o;
    o.width = 128;
    o.height = 128;
    o.common.variant = v;
    o.common.degree = d;
    o.common.workers = 2;
    return dct::run(o);
  };
  const auto accurate = run_with(Variant::Accurate, Degree::Mild);
  const auto aggressive = run_with(Variant::GTBMaxBuffer, Degree::Aggressive);
  EXPECT_LT(aggressive.tasks_accurate, accurate.tasks_accurate);
}

TEST(Integration, EnergyScalesWithComputeUnderModelMeter) {
  // Two jobs on one runtime, one doing 4x the work: modeled energy must be
  // strictly larger for the bigger job (RAPL hosts satisfy this too, but
  // noisily; only assert when the model meter is active).  The model's
  // static term, wall seconds times about 48 W, outweighs the busy term,
  // so a few ms of preemption in one small job can outlast a big one.
  // Each job therefore runs kRepetitions times, interleaved, and the
  // medians are compared: a flip then needs most small jobs delayed.
  sigrt::RuntimeConfig c;
  c.workers = 2;
  auto burn = [](int n) {
    return [n] {
      volatile double x = 1.0;
      for (int i = 0; i < n * 100000; ++i) x = x * 1.0000001 + 0.1;
    };
  };
  sigrt::Runtime rt(c);
  if (rt.meter().name() != "model") GTEST_SKIP() << "RAPL present";

  const auto job = [&](int tasks) {
    const sigrt::energy::Scope scope(rt.meter());
    for (int i = 0; i < tasks; ++i) rt.spawn(sigrt::task(burn(1)));
    rt.wait_all();
    return scope.joules();
  };
  constexpr int kRepetitions = 7;
  std::vector<double> small_j;
  std::vector<double> big_j;
  for (int r = 0; r < kRepetitions; ++r) {
    small_j.push_back(job(4));
    big_j.push_back(job(16));
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  EXPECT_GT(median(big_j), median(small_j));
}

TEST(Integration, MixedGroupsWithDifferentPoliciesOfOneRuntime) {
  // One runtime, several labeled phases with different ratios, dependent
  // tasks across phases — the Listing 1 structure generalized.
  sigrt::RuntimeConfig c;
  c.workers = 4;
  c.policy = sigrt::PolicyKind::GTB;
  c.gtb_buffer = 8;
  sigrt::Runtime rt(c);

  alignas(1024) static double stage1[512];
  alignas(1024) static double stage2[512];

  const auto g1 = rt.create_group("produce", 1.0);
  const auto g2 = rt.create_group("refine", 0.5);

  for (int i = 0; i < 8; ++i) {
    double* chunk = stage1 + i * 64;
    rt.spawn(sigrt::task([chunk] {
               for (int j = 0; j < 64; ++j) chunk[j] = j;
             })
                 .group(g1)
                 .out(chunk, 64));
  }
  for (int i = 0; i < 8; ++i) {
    double* src = stage1 + i * 64;
    double* dst = stage2 + i * 64;
    rt.spawn(sigrt::task([src, dst] {
               for (int j = 0; j < 64; ++j) dst[j] = src[j] * 2.0;
             })
                 .approx([src, dst] {
                   for (int j = 0; j < 64; ++j) dst[j] = src[j];
                 })
                 .significance((i % 9 + 1) / 10.0)
                 .group(g2)
                 .in(src, 64)
                 .out(dst, 64));
    }
  rt.wait_all();

  const auto r1 = rt.group_report(g1);
  const auto r2 = rt.group_report(g2);
  EXPECT_EQ(r1.accurate, 8u);
  EXPECT_EQ(r2.accurate + r2.approximate, 8u);
  EXPECT_EQ(r2.accurate, 4u);
  // Data flowed: every refined chunk holds either x2 (accurate) or x1
  // (approximate) of the produced values.
  for (int i = 0; i < 8; ++i) {
    const double v = stage2[i * 64 + 10];
    EXPECT_TRUE(v == 20.0 || v == 10.0) << "chunk " << i;
  }
}

TEST(Integration, QualityEnergyTradeoffIsMonotoneForSobel) {
  // The central claim of the paper in miniature: lowering the ratio cannot
  // improve quality, and cannot increase accurate-task count.
  std::vector<double> ratios{1.0, 0.8, 0.5, 0.2, 0.0};
  double prev_quality = -1.0;
  std::uint64_t prev_accurate = UINT64_MAX;
  for (const double ratio : ratios) {
    sobel::Options o;
    o.width = 128;
    o.height = 128;
    o.common.variant = Variant::GTBMaxBuffer;
    o.common.workers = 2;
    o.ratio_override = ratio;
    const auto r = sobel::run(o);
    EXPECT_GE(r.quality, prev_quality - 1e-9) << "ratio " << ratio;
    EXPECT_LE(r.tasks_accurate, prev_accurate) << "ratio " << ratio;
    prev_quality = r.quality;
    prev_accurate = r.tasks_accurate;
  }
}

TEST(Integration, KmeansPoliciesAgreeOnQualityScale) {
  for (const Variant v : {Variant::GTB, Variant::GTBMaxBuffer, Variant::LQH}) {
    kmeans::Options o;
    o.points = 512;
    o.clusters = 4;
    o.chunk = 32;
    o.common.variant = v;
    o.common.degree = Degree::Medium;
    o.common.workers = 2;
    const auto r = kmeans::run(o);
    EXPECT_LT(r.quality, 0.1) << to_string(v);
  }
}

}  // namespace
