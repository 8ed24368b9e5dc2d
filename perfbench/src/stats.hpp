// Sample statistics and result reporting shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it.  `q` in (0, 1]; returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// How many samples lie strictly beyond the nearest-rank q-percentile of n
/// samples — what a tail percentile rests on.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Median of a sample (nearest rank), 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// "a b c": the values with 4 significant digits, for report lines.
[[nodiscard]] std::string join(const std::vector<double>& v);

/// Peak resident set size of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation measured.  `e2e` are the end-to-end metrics (printed
/// on the last line with --trace 0), `layer` the per-layer ones (--trace 1).
/// `report` lines are printed before the result, prefixed with "# ".
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;  ///< false: a check of the measurement itself failed
  /// Workload-specific stamp fields (worker counts, energy backend, ...).
  std::vector<std::pair<std::string, std::string>> stamp;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> report;

  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace pb
