// Parameterized property tests sweeping ratios, buffer sizes, worker counts
// and significance distributions across all policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/sigrt.hpp"
#include "support/rng.hpp"

namespace {

using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

enum class Dist { Uniform, RoundRobin, Random, Bimodal };

const char* to_string(Dist d) {
  switch (d) {
    case Dist::Uniform: return "uniform";
    case Dist::RoundRobin: return "roundrobin";
    case Dist::Random: return "random";
    case Dist::Bimodal: return "bimodal";
  }
  return "?";
}

double significance_of(Dist d, std::size_t i, sigrt::support::Xoshiro256& rng) {
  switch (d) {
    case Dist::Uniform: return 0.5;
    case Dist::RoundRobin: return static_cast<double>(i % 9 + 1) / 10.0;
    case Dist::Random: return 0.05 + 0.9 * rng.uniform();
    case Dist::Bimodal: return i % 2 == 0 ? 0.15 : 0.85;
  }
  return 0.5;
}

struct Params {
  PolicyKind policy;
  double ratio;
  std::size_t buffer;
  unsigned workers;
  Dist dist;
};

std::string param_name(const testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  std::string s = sigrt::to_string(p.policy);
  std::replace(s.begin(), s.end(), '(', '_');
  std::erase(s, ')');
  s += "_r" + std::to_string(static_cast<int>(p.ratio * 100));
  s += "_b" + std::to_string(p.buffer);
  s += "_w" + std::to_string(p.workers);
  s += "_";
  s += to_string(p.dist);
  return s;
}

class PolicyProperty : public testing::TestWithParam<Params> {
 protected:
  struct Outcome {
    std::vector<float> significance;
    std::vector<bool> accurate;
    sigrt::GroupReport report;
  };

  Outcome run(std::size_t n) {
    const Params& p = GetParam();
    RuntimeConfig c;
    c.workers = p.workers;
    c.policy = p.policy;
    c.gtb_buffer = p.buffer;
    Runtime rt(c);
    const auto g = rt.create_group("prop", p.ratio);

    Outcome out;
    out.significance.resize(n);
    std::vector<std::atomic<int>> acc(n);
    sigrt::support::Xoshiro256 rng(12345);
    for (std::size_t i = 0; i < n; ++i) {
      const double s = significance_of(p.dist, i, rng);
      out.significance[i] = static_cast<float>(s);
      rt.spawn(sigrt::task([&acc, i] { acc[i].store(1); })
                   .approx([] {})
                   .significance(s)
                   .group(g));
    }
    rt.wait_group(g);
    out.accurate.resize(n);
    for (std::size_t i = 0; i < n; ++i) out.accurate[i] = acc[i].load() == 1;
    out.report = rt.group_report(g);
    return out;
  }
};

TEST_P(PolicyProperty, EveryTaskGetsExactlyOneOutcome) {
  const auto out = run(600);
  const auto& r = out.report;
  EXPECT_EQ(r.accurate + r.approximate + r.dropped, 600u);
}

TEST_P(PolicyProperty, AchievedRatioTracksRequested) {
  const Params& p = GetParam();
  const std::size_t n = 1200;
  const auto out = run(n);
  const double provided = out.report.provided_ratio();

  // GTB applies Listing 4's quota per window: expected value is exact
  // per-window arithmetic (ceil semantics of `i < ratio * count`), which
  // matters for tiny windows (buffer 1 => everything accurate).
  if (p.policy == PolicyKind::GTB && p.buffer != SIZE_MAX) {
    auto quota = [&](std::size_t count) {
      return static_cast<std::size_t>(std::ceil(p.ratio * static_cast<double>(count) - 1e-9));
    };
    const std::size_t full = n / p.buffer;
    const std::size_t rem = n % p.buffer;
    const double expected =
        static_cast<double>(full * quota(p.buffer) + quota(rem)) /
        static_cast<double>(n);
    EXPECT_NEAR(provided, expected, 1e-9);
    return;
  }

  // Single-window GTB flavors are exact; LQH may deviate; multi-worker LQH
  // deviates the most (localized view, §3.4 — round-robin issue can give a
  // worker a skewed sample of the significance distribution, the effect
  // behind the paper's Table 2 LQH column).
  double tolerance = 0.002;
  if (p.policy == PolicyKind::LQH) tolerance = p.workers > 1 ? 0.15 : 0.02;
  EXPECT_NEAR(provided, p.ratio, tolerance);
}

TEST_P(PolicyProperty, NoInversionsForSingleWindowPolicies) {
  const Params& p = GetParam();
  const auto out = run(900);
  if (p.policy == PolicyKind::GTBMaxBuffer) {
    EXPECT_DOUBLE_EQ(out.report.inversion_fraction, 0.0);
  }
}

TEST_P(PolicyProperty, UniformSignificanceNeverInverts) {
  const Params& p = GetParam();
  if (p.dist != Dist::Uniform) GTEST_SKIP();
  const auto out = run(800);
  EXPECT_DOUBLE_EQ(out.report.inversion_fraction, 0.0);
}

TEST_P(PolicyProperty, HigherSignificanceNeverLessAccurateInAggregate) {
  // Monotonicity: binned by significance level, the accurate fraction must
  // be non-decreasing (allowing small noise at one boundary level for
  // windowed/local policies).
  const auto out = run(1800);
  std::array<double, 10> acc{};
  std::array<double, 10> tot{};
  for (std::size_t i = 0; i < out.significance.size(); ++i) {
    const auto bin =
        std::min<std::size_t>(9, static_cast<std::size_t>(out.significance[i] * 10));
    tot[bin] += 1;
    acc[bin] += out.accurate[i] ? 1 : 0;
  }
  double prev = -0.2;
  for (std::size_t b = 0; b < 10; ++b) {
    if (tot[b] < 30) continue;  // skip sparsely populated bins
    const double frac = acc[b] / tot[b];
    EXPECT_GE(frac, prev - 0.15) << "bin " << b;
    prev = std::max(prev, frac);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PolicyProperty,
    testing::ValuesIn([] {
      std::vector<Params> ps;
      for (const PolicyKind policy :
           {PolicyKind::GTB, PolicyKind::GTBMaxBuffer, PolicyKind::LQH}) {
        for (const double ratio : {0.0, 0.3, 0.5, 0.8, 1.0}) {
          for (const unsigned workers : {0u, 4u}) {
            for (const Dist dist :
                 {Dist::Uniform, Dist::RoundRobin, Dist::Random, Dist::Bimodal}) {
              const std::size_t buffer =
                  policy == PolicyKind::GTB ? 16 : SIZE_MAX;
              ps.push_back({policy, ratio, buffer, workers, dist});
            }
          }
        }
      }
      // A few extra GTB window sizes.
      for (const std::size_t buffer : {1, 4, 64, 511}) {
        ps.push_back({PolicyKind::GTB, 0.5, buffer, 0, Dist::RoundRobin});
      }
      return ps;
    }()),
    param_name);

}  // namespace
