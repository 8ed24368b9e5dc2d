// Fundamental types of the significance-aware runtime (sigrt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

namespace sigrt {

using TaskId = std::uint64_t;
using GroupId = std::uint32_t;

/// Group 0 always exists: tasks spawned without a label() clause land here.
inline constexpr GroupId kDefaultGroup = 0;

/// How a task was (or will be) executed.
enum class ExecutionKind : std::uint8_t {
  Undecided,    ///< policy has not classified the task yet
  Accurate,     ///< run the accurate body
  Approximate,  ///< run the approxfun() body
  Dropped,      ///< approximated but no approxfun supplied: skip entirely
};

[[nodiscard]] constexpr const char* to_string(ExecutionKind k) noexcept {
  switch (k) {
    case ExecutionKind::Undecided: return "undecided";
    case ExecutionKind::Accurate: return "accurate";
    case ExecutionKind::Approximate: return "approximate";
    case ExecutionKind::Dropped: return "dropped";
  }
  return "?";
}

/// Task-classification policy selector (§3 of the paper).
enum class PolicyKind : std::uint8_t {
  Agnostic,      ///< significance-agnostic baseline: everything accurate
  GTB,           ///< Global Task Buffering with a bounded buffer (§3.3)
  GTBMaxBuffer,  ///< GTB buffering until the synchronization barrier: the
                 ///< §3.2 oracle (full a-priori knowledge of the group)
  LQH,           ///< Local Queue History (§3.4)
};

[[nodiscard]] constexpr const char* to_string(PolicyKind p) noexcept {
  switch (p) {
    case PolicyKind::Agnostic: return "agnostic";
    case PolicyKind::GTB: return "GTB";
    case PolicyKind::GTBMaxBuffer: return "GTB(MaxBuffer)";
    case PolicyKind::LQH: return "LQH";
  }
  return "?";
}

/// Runtime construction parameters.
struct RuntimeConfig {
  /// Worker thread count.  0 selects inline (synchronous) execution on the
  /// spawning thread — deterministic, handy for tests and debugging.
  unsigned workers = default_workers();

  PolicyKind policy = PolicyKind::GTB;

  /// GTB buffer capacity per task group.  Ignored by other policies;
  /// GTBMaxBuffer overrides it with an unbounded buffer.
  std::size_t gtb_buffer = 32;

  /// Number of discrete significance levels tracked by LQH.  The paper uses
  /// 101 levels (0.00 .. 1.00 in steps of 0.01).
  unsigned lqh_levels = 101;

  /// Enable work stealing between worker queues.
  bool steal = true;

  /// Block granularity of the dependence tracker (power of two, bytes).
  std::size_t block_bytes = 1024;

  /// Record a per-task (significance, kind) log used for Table 2's
  /// significance-inversion and ratio-deviation metrics.  Negligible cost;
  /// disable for overhead measurements of the bare scheduler.
  bool record_task_log = true;

  // --- §6 future-work extension: ultra low-power but unreliable cores -----

  /// Number of workers (taken from the top of the worker index range)
  /// modeled as near-threshold-voltage, unreliable cores.  Accurate tasks
  /// are only issued to — and stolen by — reliable workers, unless they
  /// carry a check() validator and a redo budget (a rejected result is
  /// re-executed on a reliable worker — the §6 check/redo contract); tasks
  /// already classified approximate (or droppable) may run anywhere.  An
  /// armed fault::Site::TaskCorrupt plan silently drops approximate tasks
  /// that run here.  Clamped to workers-1 so at least one reliable worker
  /// always exists.
  unsigned unreliable_workers = 0;

  [[nodiscard]] static unsigned default_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

}  // namespace sigrt
