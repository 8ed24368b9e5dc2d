// Closed-loop load/quality controller for one request class.
//
// Tracks a latency deadline under open-loop load: each epoch the server
// feeds the controller the class's windowed p99 latency and in-flight
// depth, and the controller answers with the group ratio() to apply and a
// perforation level for the dispatcher.  AIMD with a degradation ladder:
//
//   violation  (p99 > deadline, or backlog above the high watermark):
//       ratio <- max(floor, ratio * decrease_factor)        (rung 1)
//       once the ratio sits at the quality floor:
//       perforation <- min(kMaxPerforation, perforation + kPerforateStep)
//                                                           (rung 2)
//   compliant  (backlog at/below the low watermark and p99 under
//               target_fraction * deadline):
//       un-perforate first, then ratio <- min(1, ratio + increase_step)
//   otherwise: hold (the hysteresis band between target and deadline).
//
// Rung 3 — shedding — is not the controller's job: it happens at admission
// when a class's in-flight bound is exceeded (see Server::submit).
//
// The class is pure logic (no clock, no threads): update() is called from
// the server's controller thread, and the convergence tests drive it with
// synthetic observations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace sigrt::serve {

struct QosOptions {
  double deadline_ns = 50e6;     ///< the class latency objective (p99)
  double quality_floor = 0.0;    ///< ratio() is never driven below this

  double increase_step = 0.05;   ///< additive recovery toward ratio 1.0
  double decrease_factor = 0.7;  ///< multiplicative backoff on violation
  double target_fraction = 0.5;  ///< recover only when p99 < fraction * deadline

  std::size_t backlog_high = 256;  ///< in-flight above this is a violation
  std::size_t backlog_low = 32;    ///< recovery requires in-flight <= this
};

/// One epoch's worth of telemetry for a class.
struct QosObservation {
  double p99_ns = 0.0;           ///< windowed p99 latency (0 when no samples)
  std::uint64_t completed = 0;   ///< completions inside the window
  std::size_t in_flight = 0;     ///< admitted-but-uncompleted at sample time
};

struct QosDecision {
  double ratio = 1.0;
  double perforation = 0.0;  ///< fraction of admitted requests to drop outright
};

class QosController {
 public:
  /// A class starts at full quality.
  static constexpr double kInitialRatio = 1.0;
  /// Windows with fewer completions cannot signal a latency violation (one
  /// slow straggler at low rate must not collapse the ratio).
  static constexpr std::uint64_t kMinSamples = 8;
  /// Rung-2 perforation step per violating (or calm) epoch, and its cap.
  static constexpr double kPerforateStep = 0.15;
  static constexpr double kMaxPerforation = 0.9;

  explicit QosController(QosOptions options) noexcept : options_(options) {}

  QosDecision update(const QosObservation& obs) noexcept {
    const bool latency_bad = obs.completed >= kMinSamples &&
                             obs.p99_ns > options_.deadline_ns;
    const bool backlog_bad = obs.in_flight > options_.backlog_high;
    const bool calm =
        obs.in_flight <= options_.backlog_low &&
        (obs.completed == 0 ||
         obs.p99_ns <= options_.target_fraction * options_.deadline_ns);

    if (latency_bad || backlog_bad) {
      ++violations_;
      if (ratio_ > options_.quality_floor) {
        ratio_ *= options_.decrease_factor;
        // Snap once within one additive step of the floor: a pure
        // multiplicative decrease only asymptotes and would keep rung 2
        // unreachable.
        if (ratio_ < options_.quality_floor + options_.increase_step) {
          ratio_ = options_.quality_floor;
        }
      } else {
        perforation_ = std::min(kMaxPerforation, perforation_ + kPerforateStep);
      }
    } else if (calm) {
      // Climb the ladder back down in reverse order.
      if (perforation_ > 0.0) {
        perforation_ = std::max(0.0, perforation_ - kPerforateStep);
      } else {
        ratio_ = std::min(1.0, ratio_ + options_.increase_step);
      }
    }
    return {ratio_, perforation_};
  }

  [[nodiscard]] double ratio() const noexcept { return ratio_; }
  [[nodiscard]] double perforation() const noexcept { return perforation_; }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  [[nodiscard]] const QosOptions& options() const noexcept { return options_; }

 private:
  QosOptions options_;
  double ratio_ = kInitialRatio;
  double perforation_ = 0.0;
  std::uint64_t violations_ = 0;
};

}  // namespace sigrt::serve
