// Energy measurement abstraction.
//
// The paper measures energy through the RAPL registers of two Xeon E5-2650
// packages (via likwid).  This library provides:
//   * RaplMeter   — reads the Linux powercap sysfs interface when present.
//   * ModelMeter  — a calibrated activity-based model of the paper's machine,
//                   used when RAPL is unavailable (e.g. containers, non-Intel
//                   hosts).  The substitution preserves the paper's
//                   relative results: its policies save energy by finishing
//                   sooner with less busy core time, and the model charges
//                   static power per wall second and dynamic power per
//                   busy second.
// Both expose one cumulative counter so measurement scopes are identical
// regardless of backend.
#pragma once

#include <memory>
#include <string>

namespace sigrt::energy {

/// Cumulative activity of a task runtime: how long the measured region has
/// been running and how much aggregate CPU-busy time its workers consumed.
/// Implemented by sigrt::Runtime.
struct Activity {
  double wall_s = 0.0;  ///< elapsed wall-clock seconds
  double busy_s = 0.0;  ///< task execution seconds on reliable workers
  /// Task execution seconds on NTC (unreliable) workers — charged a
  /// fraction of the dynamic power by the machine model (§6 extension).
  double busy_unreliable_s = 0.0;
};

/// Source of cumulative activity counters for the model-based meter.
class ActivitySource {
 public:
  virtual ~ActivitySource() = default;
  [[nodiscard]] virtual Activity activity_now() const = 0;
};

/// A monotonically increasing energy counter in joules.
class Meter {
 public:
  virtual ~Meter() = default;

  /// Cumulative joules consumed since an arbitrary epoch.  Scopes measure
  /// differences, so the epoch does not matter.
  [[nodiscard]] virtual double joules_now() const = 0;

  /// Human-readable backend identifier ("rapl", "model", "null").
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Meter that always reads zero; keeps measurement plumbing alive in unit
/// tests that do not care about energy.
class NullMeter final : public Meter {
 public:
  [[nodiscard]] double joules_now() const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "null"; }
};

/// RAII measurement window over a meter.
class Scope {
 public:
  explicit Scope(const Meter& meter)
      : meter_(meter), start_j_(meter.joules_now()) {}

  /// Joules consumed since construction.
  [[nodiscard]] double joules() const { return meter_.joules_now() - start_j_; }

 private:
  const Meter& meter_;
  double start_j_;
};

/// Builds the best available meter: RAPL if the powercap interface is
/// readable, otherwise the machine model fed by `source`.  `source` may be
/// null, in which case a model meter would read zero busy time and the
/// factory falls back to NullMeter when RAPL is absent.
std::unique_ptr<Meter> make_best_meter(const ActivitySource* source);

}  // namespace sigrt::energy
