// Global Task Buffering policy tests (§3.3, Listing 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/sigrt.hpp"

namespace {

using sigrt::ExecutionKind;
using sigrt::PolicyKind;
using sigrt::Runtime;
using sigrt::RuntimeConfig;

RuntimeConfig config(PolicyKind p, std::size_t buffer = 16) {
  RuntimeConfig c;
  c.workers = 0;
  c.policy = p;
  c.gtb_buffer = buffer;
  return c;
}

/// Spawns `n` tasks with significances sig(i) and returns, per index,
/// whether the task ran accurately.
std::vector<bool> classify(Runtime& rt, sigrt::GroupId g, std::size_t n,
                           const std::function<double(std::size_t)>& sig) {
  std::vector<bool> accurate(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    rt.spawn(sigrt::task([&accurate, i] { accurate[i] = true; })
                 .approx([] {})
                 .significance(sig(i))
                 .group(g));
  }
  rt.wait_group(g);
  return accurate;
}

TEST(GtbPolicy, MaxBufferSelectsExactlyTopRatioBySignificance) {
  Runtime rt(config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 0.3);
  // significance ascends with index: exactly the last 30% must be accurate.
  const auto acc = classify(rt, g, 100, [](std::size_t i) {
    return 0.01 + 0.009 * static_cast<double>(i);
  });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(acc[i], i >= 70) << "index " << i;
  }
}

TEST(GtbPolicy, MaxBufferRespectsRatioExactly) {
  for (const double ratio : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    Runtime rt(config(PolicyKind::GTBMaxBuffer));
    const auto g = rt.create_group("g", ratio);
    const auto acc = classify(rt, g, 200, [](std::size_t i) {
      return static_cast<double>(i % 9 + 1) / 10.0;
    });
    const auto n_acc =
        static_cast<std::size_t>(std::count(acc.begin(), acc.end(), true));
    const auto expected = static_cast<std::size_t>(std::ceil(ratio * 200 - 1e-9));
    EXPECT_EQ(n_acc, expected) << "ratio " << ratio;
  }
}

TEST(GtbPolicy, MaxBufferHasZeroInversions) {
  Runtime rt(config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 0.4);
  classify(rt, g, 300, [](std::size_t i) {
    return static_cast<double>((i * 7) % 9 + 1) / 10.0;
  });
  EXPECT_DOUBLE_EQ(rt.group_report(g).inversion_fraction, 0.0);
}

TEST(GtbPolicy, BoundedBufferEnforcesRatioPerWindow) {
  // With a window of 10 and ratio 0.5, every window of 10 tasks must run
  // exactly 5 accurately.
  Runtime rt(config(PolicyKind::GTB, 10));
  const auto g = rt.create_group("g", 0.5);
  const auto acc = classify(rt, g, 100, [](std::size_t i) {
    return static_cast<double>(i % 9 + 1) / 10.0;
  });
  for (std::size_t w = 0; w < 10; ++w) {
    const auto n = std::count(acc.begin() + static_cast<std::ptrdiff_t>(10 * w),
                              acc.begin() + static_cast<std::ptrdiff_t>(10 * (w + 1)),
                              true);
    EXPECT_EQ(n, 5) << "window " << w;
  }
}

TEST(GtbPolicy, BoundedBufferZeroRatioDiffOnAlignedGroups) {
  Runtime rt(config(PolicyKind::GTB, 8));
  const auto g = rt.create_group("g", 0.25);
  classify(rt, g, 64, [](std::size_t i) {
    return static_cast<double>(i % 9 + 1) / 10.0;
  });
  EXPECT_NEAR(rt.group_report(g).ratio_diff(), 0.0, 1e-12);
}

TEST(GtbPolicy, PartialWindowFlushedAtBarrier) {
  Runtime rt(config(PolicyKind::GTB, 64));
  const auto g = rt.create_group("g", 0.5);
  // Only 10 tasks spawned: the barrier must flush the partial window.
  const auto acc = classify(rt, g, 10, [](std::size_t i) {
    return 0.05 + 0.09 * static_cast<double>(i);
  });
  EXPECT_EQ(std::count(acc.begin(), acc.end(), true), 5);
  // The 5 most significant (highest indices) are the accurate ones.
  for (std::size_t i = 5; i < 10; ++i) EXPECT_TRUE(acc[i]);
}

TEST(GtbPolicy, WindowsAreIndependentDecisions) {
  // A window holding only low significances still runs ratio of them
  // accurately — GTB can only rank within the window it sees.
  Runtime rt(config(PolicyKind::GTB, 4));
  const auto g = rt.create_group("g", 0.5);
  // First window all 0.1s, second window all 0.9s.
  const auto acc = classify(rt, g, 8, [](std::size_t i) {
    return i < 4 ? 0.1 : 0.9;
  });
  EXPECT_EQ(std::count(acc.begin(), acc.begin() + 4, true), 2);
  EXPECT_EQ(std::count(acc.begin() + 4, acc.end(), true), 2);
}

TEST(GtbPolicy, TieBreaksBySpawnOrder) {
  // Uniform significance: the *first* ratio fraction of each window runs
  // accurately (stable sort), making GTB fully deterministic (§4.2 Kmeans).
  Runtime rt(config(PolicyKind::GTB, 10));
  const auto g = rt.create_group("g", 0.3);
  const auto acc = classify(rt, g, 20, [](std::size_t) { return 0.5; });
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(acc[10 * w + i], i < 3) << "w=" << w << " i=" << i;
    }
  }
}

TEST(GtbPolicy, DeterministicAcrossRuns) {
  auto run_once = [] {
    Runtime rt(config(PolicyKind::GTB, 16));
    const auto g = rt.create_group("g", 0.6);
    return classify(rt, g, 128, [](std::size_t i) {
      return static_cast<double>((i * 13) % 9 + 1) / 10.0;
    });
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(GtbPolicy, SpecialValuesBypassQuota) {
  Runtime rt(config(PolicyKind::GTBMaxBuffer));
  const auto g = rt.create_group("g", 0.0);
  std::vector<bool> acc(4, false);
  // Two significance-1.0 tasks must run accurately even at ratio 0.
  for (std::size_t i = 0; i < 4; ++i) {
    rt.spawn(sigrt::task([&acc, i] { acc[i] = true; })
                 .approx([] {})
                 .significance(i < 2 ? 1.0 : 0.5)
                 .group(g));
  }
  rt.wait_group(g);
  EXPECT_TRUE(acc[0]);
  EXPECT_TRUE(acc[1]);
  EXPECT_FALSE(acc[2]);
  EXPECT_FALSE(acc[3]);
}

TEST(GtbPolicy, MultipleGroupsBufferIndependently) {
  Runtime rt(config(PolicyKind::GTB, 4));
  const auto a = rt.create_group("a", 1.0);
  const auto b = rt.create_group("b", 0.0);
  int a_runs = 0;
  int b_approx = 0;
  for (int i = 0; i < 8; ++i) {
    rt.spawn(sigrt::task([&] { ++a_runs; }).significance(0.5).group(a));
    rt.spawn(sigrt::task([] {}).approx([&] { ++b_approx; }).significance(0.5).group(b));
  }
  rt.wait_all();
  EXPECT_EQ(a_runs, 8);
  EXPECT_EQ(b_approx, 8);
}

TEST(GtbPolicy, ThreadedExecutionMatchesInlineClassification) {
  auto run_with_workers = [](unsigned workers) {
    RuntimeConfig c;
    c.workers = workers;
    c.policy = PolicyKind::GTBMaxBuffer;
    Runtime rt(c);
    const auto g = rt.create_group("g", 0.5);
    std::vector<int> acc(64, 0);
    for (std::size_t i = 0; i < 64; ++i) {
      int* slot = &acc[i];
      rt.spawn(sigrt::task([slot] { *slot = 1; })
                   .approx([] {})
                   .significance(static_cast<double>(i % 9 + 1) / 10.0)
                   .group(g));
    }
    rt.wait_group(g);
    return acc;
  };
  EXPECT_EQ(run_with_workers(0), run_with_workers(4));
}

}  // namespace
