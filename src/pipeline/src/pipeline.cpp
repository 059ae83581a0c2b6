#include "codar/pipeline/pipeline.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "codar/core/verify.hpp"
#include "codar/cost/fidelity_model.hpp"
#include "codar/cost/swap_cost.hpp"
#include "codar/ir/decompose.hpp"
#include "codar/ir/peephole.hpp"
#include "codar/layout/initial_mapping.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/schedule/scheduler.hpp"

namespace codar::pipeline {

namespace {

const PassInfo& named(std::span<const PassInfo> table, std::string_view kind,
                      std::string_view name) {
  for (const PassInfo& pass : table) {
    if (pass.name == name) return pass;
  }
  std::string expected;
  for (const PassInfo& pass : table) {
    if (!expected.empty()) expected += '|';
    expected += pass.name;
  }
  throw UsageError("unknown " + std::string(kind) + " '" +
                   std::string(name) + "' (expected " + expected + ")");
}

/// Shrinks a circuit whose declared register is wider than the device down
/// to its used qubits (QASM files routinely over-declare).
ir::Circuit fit_register(const ir::Circuit& circuit, int device_qubits) {
  if (circuit.num_qubits() <= device_qubits) return circuit;
  const int used = circuit.used_qubit_count();
  if (used > device_qubits) {
    throw std::runtime_error("circuit uses " + std::to_string(used) +
                             " qubits but the device has only " +
                             std::to_string(device_qubits));
  }
  std::vector<ir::Qubit> identity(
      static_cast<std::size_t>(circuit.num_qubits()));
  for (std::size_t q = 0; q < identity.size(); ++q) {
    identity[q] = static_cast<ir::Qubit>(q);
  }
  return circuit.remapped(identity, used);
}

/// Runs one named stage, recording its wall time on the report.
template <typename Fn>
void timed_stage(RouteReport& report, const char* stage, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  report.stage_us.push_back(
      {stage, static_cast<std::size_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count())});
}

}  // namespace

const PassInfo& router_named(std::string_view name) {
  return named(kRouters, "router", name);
}

const PassInfo& mapping_named(std::string_view name) {
  return named(kMappings, "initial mapping", name);
}

Router::Router(const arch::Device& device, const RoutingSpec& spec)
    : name_(router_named(spec.router).name), impl_(make(device, spec)) {}

Router::Impl Router::make(const arch::Device& device,
                          const RoutingSpec& spec) {
  if (spec.router == "sabre") {
    return Impl(std::in_place_type<sabre::SabreRouter>, device);
  }
  if (spec.router == "astar") {
    return Impl(std::in_place_type<astar::AstarRouter>, device);
  }
  core::CodarConfig config = spec.codar;
  if (spec.router == "codar-fid") {
    // Candidates are priced alpha·H_basic + beta·ln F_swap −
    // gamma·decoherence (cost::SwapCost). With beta = gamma = 0 no cost
    // model is installed at all, so codar-fid runs the literal codar code
    // path: byte-identical output by construction.
    if (spec.fid.beta < 0.0 || spec.fid.gamma < 0.0) {
      throw UsageError("--beta/--gamma must be >= 0");
    }
    config.alpha = spec.fid.alpha;
    if (spec.fid.beta != 0.0 || spec.fid.gamma != 0.0) {
      config.swap_cost = std::make_shared<const cost::SwapCost>(
          device, spec.fid.beta, spec.fid.gamma);
    }
  }
  return Impl(std::in_place_type<core::CodarRouter>, device,
              std::move(config));
}

core::RoutingResult Router::route(const ir::Circuit& circuit,
                                  const layout::Layout& initial) const {
  return std::visit(
      [&](const auto& router) { return router.route(circuit, initial); },
      impl_);
}

Mapping::Mapping(const RoutingSpec& spec)
    : name_(mapping_named(spec.mapping).name),
      rounds_(spec.mapping_rounds),
      seed_(spec.seed) {}

layout::Layout Mapping::choose(const ir::Circuit& circuit,
                               const arch::Device& device) const {
  if (name_ == "identity") {
    return layout::Layout(circuit.num_qubits(), device.graph.num_qubits());
  }
  if (name_ == "greedy") {
    return layout::greedy_interaction_layout(circuit, device.graph);
  }
  return sabre::SabreRouter(device).initial_mapping(circuit, rounds_, seed_);
}

Pipeline::Pipeline(const arch::Device& device, const RoutingSpec& spec)
    : device_(&device), spec_(spec), router_(device, spec), mapping_(spec) {}

RouteReport Pipeline::run(const ir::Circuit& circuit, bool keep_qasm) const {
  RouteReport report;
  report.name = circuit.name();
  try {
    // Stage "lower": Toffoli decomposition plus register fitting, so every
    // downstream stage sees a <=2-qubit circuit that fits the device.
    ir::Circuit lowered(0);
    timed_stage(report, "lower", [&] {
      lowered = fit_register(ir::decompose_toffoli(circuit),
                             device_->graph.num_qubits());
    });
    if (spec_.peephole) {
      timed_stage(report, "peephole",
                  [&] { lowered = ir::peephole_optimize(lowered); });
    }
    report.qubits = lowered.used_qubit_count();
    report.gates_in = lowered.size();
    report.depth_in = schedule::weighted_depth(lowered, device_->durations);

    // Stage "initial": the mapping chooses π.
    std::optional<layout::Layout> initial;
    timed_stage(report, "initial",
                [&] { initial = mapping_.choose(lowered, *device_); });

    // Stage "route": exactly the router — route_us keeps its
    // historical meaning of pure route() wall time.
    std::optional<core::RoutingResult> result;
    timed_stage(report, "route",
                [&] { result = router_.route(lowered, *initial); });
    report.route_us = report.stage_us.back().us;

    // Stage "report": fold the router's stats into the report. Runs before
    // verification so a failed verify still reports what was produced.
    timed_stage(report, "report", [&] {
      report.gates_out = result->circuit.size();
      report.gates_routed = result->stats.gates_routed;
      report.barriers = result->stats.barriers;
      report.swaps = result->stats.swaps_inserted;
      report.forced_swaps = result->stats.forced_swaps;
      report.escape_swaps = result->stats.escape_swaps;
      report.cycles = result->stats.cycles_simulated;
      report.makespan = result->stats.router_makespan;
      // The routed circuit's indices are physical, so the device overload
      // resolves calibration; depth_in above is a *logical* circuit and
      // deliberately stays on the kind-level durations. One schedule
      // feeds both the weighted depth and the ESP estimate.
      const schedule::Schedule asap =
          schedule::asap_schedule(result->circuit, *device_);
      report.depth_out = asap.makespan;
      report.log_esp =
          cost::FidelityModel(*device_).estimate(result->circuit, asap)
              .log_esp();
    });

    if (spec_.verify) {
      core::VerifyOutcome outcome;
      timed_stage(report, "verify", [&] {
        outcome = core::verify_routing(lowered, *result, device_->graph);
      });
      report.verified = outcome.valid;
      if (!outcome.valid) {
        report.error = "verification failed: " + outcome.reason;
        return report;
      }
    } else {
      report.verify_skipped = true;
    }

    if (keep_qasm) {
      timed_stage(report, "render",
                  [&] { report.routed_qasm = qasm::to_qasm(result->circuit); });
    }
  } catch (const std::exception& e) {
    report.error = e.what();
  }
  return report;
}

}  // namespace codar::pipeline
