// Shared helpers for tests that arm a fault::FaultPlan: the compiled-out
// skip, the SIGRT_CHAOS_SEED plan-seed perturbation, and an arm/disarm
// guard.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "fault/fault.hpp"

// Tests that need faults to actually FIRE are skipped when the hooks are
// compiled out (-DSIGRT_FAULT_INJECTION=0).
#if SIGRT_FAULT_INJECTION
#define SKIP_WITHOUT_INJECTION() (void)0
#else
#define SKIP_WITHOUT_INJECTION() \
  GTEST_SKIP() << "fault injection compiled out"
#endif

namespace sigrt::test {

/// CI chaos matrix: SIGRT_CHAOS_SEED (a small decimal) perturbs every plan
/// seed so the same binary exercises a distinct deterministic fault
/// schedule per job.  Unset or 0 leaves the baked-in seeds untouched, and
/// determinism WITHIN a process is unaffected — the env is read once.
inline std::uint64_t chaos_seed(std::uint64_t base) {
  static const std::uint64_t mix = [] {
    const char* s = std::getenv("SIGRT_CHAOS_SEED");
    return s ? std::strtoull(s, nullptr, 10) * 0x9E3779B97F4A7C15ull : 0ull;
  }();
  return base ^ mix;
}

/// arm() on construction, disarm() on destruction — no test can leak an
/// armed plan into the rest of the suite.
struct ArmedPlan {
  explicit ArmedPlan(const fault::FaultPlan& plan) { fault::arm(plan); }
  ~ArmedPlan() { fault::disarm(); }
  ArmedPlan(const ArmedPlan&) = delete;
  ArmedPlan& operator=(const ArmedPlan&) = delete;
};

}  // namespace sigrt::test
