#pragma once

// Output checks. They run outside the timed region; every failure counts
// against the run's error rate.

#include <cstdint>
#include <string>

#include "codar/arch/device.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/pipeline/pipeline.hpp"

namespace perfbench {

/// Largest register the state-vector check simulates.
inline constexpr int kMaxSimQubits = 12;

enum class SimCheck { kMatch, kMismatch, kSkipped };

/// Simulates `logical` and its routed form `routed` from the same seeded
/// random product state (placed by the initial layout on the routed side)
/// and compares the final states, re-positioned by the final layout.
/// Skipped when the routed circuit and its layouts touch more than
/// kMaxSimQubits physical qubits.
SimCheck check_states(const codar::ir::Circuit& logical,
                      const codar::core::RoutingResult& routed,
                      std::uint64_t seed);

/// Checks one pipeline report: it must carry no error and be verified.
/// When the routed circuit is small enough, the pipeline's mapping and
/// routing passes are re-run on `circuit` to recover the routed circuit
/// and layouts, the recovered counts must equal the report's, and
/// check_states must match. Returns "" when the report passes, otherwise
/// the reason. `*simulated` tells whether the state check ran.
std::string check_report(const codar::pipeline::Pipeline& pipeline,
                         const codar::arch::Device& device,
                         const codar::ir::Circuit& circuit,
                         const codar::pipeline::RouteReport& report,
                         std::uint64_t seed, bool* simulated);

}  // namespace perfbench
