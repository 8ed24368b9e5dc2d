// Umbrella header: the full public API of the significance-aware runtime.
//
//   #include "core/sigrt.hpp"
//
// brings in the runtime facade, the fluent spawn builder, the pragma-surface
// emulation, the policies and the energy/metrics instrumentation used by
// the examples and benchmarks.
#pragma once

#include "core/group.hpp"        // IWYU pragma: export
#include "core/pragma.hpp"       // IWYU pragma: export
#include "core/runtime.hpp"      // IWYU pragma: export
#include "core/task.hpp"         // IWYU pragma: export
#include "core/task_options.hpp" // IWYU pragma: export
#include "core/types.hpp"        // IWYU pragma: export
#include "dep/block_tracker.hpp" // IWYU pragma: export
#include "energy/meter.hpp"      // IWYU pragma: export
#include "energy/model.hpp"      // IWYU pragma: export
