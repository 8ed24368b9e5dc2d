#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace pb {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return v[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.4g", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Result::note(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  report.emplace_back(buf);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit the double carries.
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    s += buf;
  }
  s += "}}";
  return s;
}

}  // namespace pb
