// The benchmark workloads: listing1, nested-dc (batch.cpp) and serve-closed
// (wire.cpp).  Each splits its measurement window into kSegments segments,
// each on a fresh set-up, checks every output, and fills a Result.  With
// tracing, the first half of the segments runs untraced and the second half
// traced; end-to-end metrics come from the untraced segments, per-layer
// metrics from the spans and counters of the traced ones.
#pragma once

#include <cstdint>
#include <string>

#include "stats.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file written by a traced run
};

/// The measurement window is split into kSegments equal segments, each on
/// a freshly set-up program, runtime or server, and timings are the median
/// over segments: a segment disturbed from outside (CPU steal on a shared
/// host) or by one runtime's thread placement moves that segment's figures,
/// not the result.  setup_s is the median of the segments' set-ups.
inline constexpr int kSegments = 6;
/// Span budget of a traced run: units stop being traced once the buffers
/// hold this many spans.
inline constexpr std::uint64_t kSpanBudget = 1u << 20;
/// Trace buffers (recording threads) and spans per buffer.
inline constexpr std::size_t kTraceThreads = 16;
inline constexpr std::size_t kSpansPerThread = std::size_t{1} << 19;
/// Spans written to the Chrome trace file (the earliest ones).
inline constexpr std::size_t kChromeEvents = 50000;

Result run_listing1(const Options& o);
Result run_nested_dc(const Options& o);
Result run_serve_closed(const Options& o);

}  // namespace pb
