#pragma once

// The composable compilation pipeline behind every codar entry point:
// lower Toffolis → optional peephole → initial mapping → route → report →
// verify → render, with per-stage wall-time instrumentation. One circuit
// in, one RouteReport out; the batch driver, the single-file CLI path and
// the `codar serve` service all run exactly this sequence, which is what
// keeps their outputs byte-identical (the serve differential test locks
// the JSON rendering of these reports against batch output).

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/astar/astar_router.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/core/routing_result.hpp"
#include "codar/ir/circuit.hpp"
#include "codar/layout/layout.hpp"
#include "codar/pipeline/spec.hpp"
#include "codar/sabre/sabre_router.hpp"

namespace codar::pipeline {

/// One selectable pass: the name a RoutingSpec uses (also the JSON stats
/// name) and the line `--list-routers` / `--list-mappings` print.
struct PassInfo {
  std::string_view name;
  std::string_view description;
};

/// The routers, in listing order. The set is closed: the paper compares
/// CODAR against exactly these baselines.
inline constexpr std::array<PassInfo, 4> kRouters = {{
    {"codar",
     "contextual duration-aware remapper (the paper's router, DAC 2020)"},
    {"codar-fid",
     "codar with fidelity-aware SWAP scoring "
     "(alpha*distance + beta*log-fidelity + gamma*decoherence)"},
    {"sabre",
     "SWAP-based bidirectional heuristic baseline (ASPLOS 2019), "
     "duration-blind"},
    {"astar", "layered A*-search baseline (TCAD 2019), duration-blind"},
}};

/// The initial-mapping strategies, in listing order.
inline constexpr std::array<PassInfo, 3> kMappings = {{
    {"identity", "pi(q) = q (no placement)"},
    {"greedy", "interaction-graph greedy placement, deterministic"},
    {"sabre", "SABRE reverse-traversal refinement (the paper's protocol)"},
}};

/// The kRouters / kMappings entry called `name`. Throws UsageError naming
/// the whole table otherwise, e.g. "unknown router 'qiskit' (expected
/// codar|codar-fid|sabre|astar)".
const PassInfo& router_named(std::string_view name);
const PassInfo& mapping_named(std::string_view name);

/// The routing pass a spec names, built for one device. route() is const
/// and keeps no state between calls, so one Router may serve many threads.
class Router {
 public:
  /// Throws UsageError for an unknown spec.router, or for a negative
  /// codar-fid beta/gamma.
  Router(const arch::Device& device, const RoutingSpec& spec);

  std::string_view name() const { return name_; }

  /// Routes `circuit` (lowered to <=2-qubit gates, used qubits fitting the
  /// device) starting from `initial`.
  core::RoutingResult route(const ir::Circuit& circuit,
                            const layout::Layout& initial) const;

 private:
  /// codar and codar-fid share CodarRouter; codar-fid differs only in the
  /// config it is built with.
  using Impl =
      std::variant<core::CodarRouter, sabre::SabreRouter, astar::AstarRouter>;
  static Impl make(const arch::Device& device, const RoutingSpec& spec);

  std::string_view name_;
  Impl impl_;
};

/// The initial-mapping strategy a spec names, with the seed and round
/// count the sabre strategy uses.
class Mapping {
 public:
  /// Throws UsageError for an unknown spec.mapping.
  explicit Mapping(const RoutingSpec& spec);

  std::string_view name() const { return name_; }

  /// Chooses the initial layout π for `circuit` on `device`.
  layout::Layout choose(const ir::Circuit& circuit,
                        const arch::Device& device) const;

 private:
  std::string_view name_;
  int rounds_;
  std::uint64_t seed_;
};

/// Wall time of one pipeline stage, microseconds. Nondeterministic by
/// nature: the JSON rendering only includes stage timings when the caller
/// opted in (--timing), so default stats stay bit-identical across runs
/// and thread counts.
struct StageTiming {
  std::string stage;
  std::size_t us = 0;
};

/// Everything the pipeline reports about one routed circuit. All counters
/// are integers so the JSON rendering is bit-exact across runs and thread
/// counts.
struct RouteReport {
  std::string name;
  std::string error;         ///< Nonempty = the job failed; other fields stale.
  bool verified = false;     ///< verify_routing passed (false if skipped).
  bool verify_skipped = false;
  int qubits = 0;            ///< Logical qubits used by the input.
  std::size_t gates_in = 0;
  std::size_t gates_out = 0; ///< Routed gates incl. SWAPs.
  std::size_t gates_routed = 0;  ///< Real (non-barrier) input gates routed.
  std::size_t barriers = 0;      ///< Barrier fences carried through.
  std::size_t swaps = 0;
  std::size_t forced_swaps = 0;
  std::size_t escape_swaps = 0;
  std::size_t cycles = 0;        ///< Distinct simulated timestamps (CODAR).
  std::size_t route_us = 0;      ///< "route" stage wall time, microseconds.
  arch::Duration makespan = 0;   ///< Router's own timeline length.
  arch::Duration depth_in = 0;   ///< Duration-weighted depth before routing.
  arch::Duration depth_out = 0;  ///< ... and after (the paper's metric).
  /// Estimated success probability of the routed circuit under the
  /// device's calibrated fidelities + coherence (cost::FidelityModel).
  /// Log-space is the primary value (ESP underflows double for deep
  /// circuits); est_success_probability = exp(log_esp). Unlike the
  /// integer counters these are doubles — deterministic for a fixed
  /// platform, but the JSON rendering rounds-trips them exactly, so
  /// cross-platform comparisons should allow ulp-level slack.
  double log_esp = 0.0;
  std::string routed_qasm;       ///< Empty unless rendering was requested.
  /// Per-stage wall times in execution order; presentation-only (see
  /// StageTiming).
  std::vector<StageTiming> stage_us;

  bool ok() const { return error.empty() && (verified || verify_skipped); }
};

/// A resolved compilation pipeline: the router and initial mapping named
/// by the spec, constructed for one device. Construction validates the
/// names (UsageError lists the known ones). run() is const and
/// share-nothing per call, so one Pipeline may serve many threads.
class Pipeline {
 public:
  /// `device` must outlive the Pipeline (the router copies its own device
  /// model, but the pipeline reads graph/durations per run).
  Pipeline(const arch::Device& device, const RoutingSpec& spec);

  /// Runs the full stage sequence on one circuit. Never throws for
  /// routing/verification problems — failures land in `error`.
  /// `keep_qasm` enables the final render stage (report.routed_qasm).
  RouteReport run(const ir::Circuit& circuit, bool keep_qasm = false) const;

  const Router& router() const { return router_; }
  const Mapping& mapping() const { return mapping_; }
  const RoutingSpec& spec() const { return spec_; }

 private:
  const arch::Device* device_;
  RoutingSpec spec_;
  Router router_;
  Mapping mapping_;
};

}  // namespace codar::pipeline
