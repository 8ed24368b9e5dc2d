// Shared vocabulary of the six benchmark applications (§4.1, Table 1).
//
// Every app exposes  RunResult run_<app>(const <App>Options&)  which builds
// the (seeded, deterministic) input, executes the requested variant under a
// freshly configured runtime, measures wall time and energy, and evaluates
// output quality against a fully accurate execution of the same input.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/runtime.hpp"
#include "core/types.hpp"

namespace sigrt::apps {

/// The three approximation degrees studied per benchmark (Table 1).
enum class Degree : std::uint8_t { Mild, Medium, Aggressive };

[[nodiscard]] constexpr const char* to_string(Degree d) noexcept {
  switch (d) {
    case Degree::Mild: return "Mild";
    case Degree::Medium: return "Medium";
    case Degree::Aggressive: return "Aggr";
  }
  return "?";
}

inline constexpr Degree kAllDegrees[] = {Degree::Aggressive, Degree::Medium,
                                         Degree::Mild};

/// Execution variants compared in Figure 2.
enum class Variant : std::uint8_t {
  Accurate,      ///< significance-agnostic runtime, everything accurate
  GTB,           ///< bounded-buffer Global Task Buffering
  GTBMaxBuffer,  ///< GTB buffering until the barrier
  LQH,           ///< Local Queue History
  Perforated,    ///< blind loop perforation comparator [19]
};

[[nodiscard]] constexpr const char* to_string(Variant v) noexcept {
  switch (v) {
    case Variant::Accurate: return "accurate";
    case Variant::GTB: return "GTB";
    case Variant::GTBMaxBuffer: return "GTB(MaxBuf)";
    case Variant::LQH: return "LQH";
    case Variant::Perforated: return "perforation";
  }
  return "?";
}

inline constexpr Variant kPolicyVariants[] = {Variant::GTB, Variant::GTBMaxBuffer,
                                              Variant::LQH};

[[nodiscard]] constexpr PolicyKind policy_for(Variant v) noexcept {
  switch (v) {
    case Variant::GTB: return PolicyKind::GTB;
    case Variant::GTBMaxBuffer: return PolicyKind::GTBMaxBuffer;
    case Variant::LQH: return PolicyKind::LQH;
    case Variant::Accurate:
    case Variant::Perforated: return PolicyKind::Agnostic;
  }
  return PolicyKind::Agnostic;
}

/// Options shared by every app.
struct CommonOptions {
  Variant variant = Variant::GTB;
  Degree degree = Degree::Mild;
  unsigned workers = RuntimeConfig::default_workers();
  std::size_t gtb_buffer = 16;   ///< bounded-GTB window size
  unsigned lqh_levels = 101;     ///< LQH discrete significance levels
  bool steal = true;             ///< work stealing between worker queues
  unsigned unreliable_workers = 0;  ///< NTC cores (§6 extension)
  std::uint64_t seed = 42;
};

/// One measured execution; the unit the Figure 2 / Table 2 harnesses print.
struct RunResult {
  std::string app;
  std::string variant;
  std::string degree;

  double time_s = 0.0;
  double energy_j = 0.0;

  /// Quality value where *lower is better*, as plotted in Figure 2:
  /// PSNR^-1 for Sobel/DCT, relative error for the others.
  double quality = 0.0;
  std::string quality_metric;  ///< "PSNR^-1" or "rel.err"

  /// Auxiliary quality view (PSNR in dB for the image benchmarks; equals
  /// `quality` for the relative-error benchmarks).
  double quality_aux = 0.0;

  std::uint64_t tasks_total = 0;
  std::uint64_t tasks_accurate = 0;
  std::uint64_t tasks_approximate = 0;
  std::uint64_t tasks_dropped = 0;

  /// Scheduler-level observables of the run: successful steals (deque
  /// steals + inbox raids) and end-to-end task throughput.
  std::uint64_t steals = 0;
  double tasks_per_sec = 0.0;

  double requested_ratio = 1.0;      ///< mean ratio() over classifications
  double provided_ratio = 1.0;       ///< fraction actually accurate
  double ratio_diff = 0.0;           ///< |requested - provided| (Table 2)
  double inversion_fraction = 0.0;   ///< Table 2's inversed-significance metric
};

/// Builds the RuntimeConfig for a variant (policy mapping, worker count).
[[nodiscard]] RuntimeConfig runtime_config_for(const CommonOptions& common);

/// Runs `work` against a fresh runtime configured for `common`, measuring
/// wall time and energy across the call (work + final barrier), and fills
/// the scheduling fields of `result` from the runtime's group reports.
///
/// The Perforated variant also goes through here: per §4.1 the perforated
/// comparator "executes the same number of tasks as those executed
/// accurately by our approach", i.e. it spawns the surviving tasks into the
/// significance-agnostic runtime.
void run_measured(const CommonOptions& common, RunResult& result,
                  const std::function<void(Runtime&)>& work);

}  // namespace sigrt::apps
