// perfbench: the benchmark driver.
//
//   perfbench --workload <listing1|nested-dc|serve-closed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--commit <id>]
//
// Prints a report (lines starting with "# "), a stamp line, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Results whose stamps differ (commit, build, nproc, workers, simd, energy
// backend, seed) are not comparable.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/simd.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <listing1|nested-dc|serve-closed>"
               " --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--commit <id>]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, &o.seed)) return usage("--seed takes a whole number");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(val, &v) || v == 0 || v > 600) return usage("--seconds takes 1..600");
      o.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(val, &v) || v > 1) return usage("--trace takes 0 or 1");
      o.trace = v == 1;
      have_trace = true;
    } else if (arg == "--trace-out") {
      o.trace_out = val;
    } else if (arg == "--commit") {
      commit = val;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  pb::Result r;
  try {
    if (o.workload == "listing1") {
      r = pb::run_listing1(o);
    } else if (o.workload == "nested-dc") {
      r = pb::run_nested_dc(o);
    } else if (o.workload == "serve-closed") {
      r = pb::run_serve_closed(o);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  for (const std::string& line : r.report) std::printf("# %s\n", line.c_str());
  std::string stamp = "{\"commit\": \"" + commit + "\", \"build\": \"" PERFBENCH_BUILD_TYPE
                      "\", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                      ", \"simd\": \"" +
                      sigrt::support::simd::to_string(sigrt::support::simd::active()) +
                      "\", \"seed\": " + std::to_string(o.seed) + ", \"workload\": \"" +
                      o.workload + "\", \"seconds\": " +
                      std::to_string(static_cast<int>(o.seconds)) +
                      ", \"trace\": " + (o.trace ? "1" : "0");
  for (const auto& [key, value] : r.stamp) stamp += ", \"" + key + "\": \"" + value + "\"";
  stamp += "}";
  std::printf("# stamp %s\n", stamp.c_str());

  const std::vector<pb::Metric>& metrics = o.trace ? r.layer : r.e2e;
  bool finite = true;
  for (const pb::Metric& m : metrics) finite = finite && std::isfinite(m.value);
  if (!finite) std::printf("# a metric is not a finite number\n");
  const bool correct = r.failed == 0 && r.valid && finite && r.attempted > 0;
  std::printf("%s\n", pb::result_json(correct, r.attempted, r.failed, metrics).c_str());
  return 0;
}
