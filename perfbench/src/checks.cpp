#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include "codar/ir/decompose.hpp"
#include "codar/sim/statevector.hpp"
#include "codar/workloads/generators.hpp"

#include "bench.hpp"

namespace perfbench {

using codar::ir::Circuit;
using codar::ir::Qubit;

SimCheck check_states(const Circuit& logical,
                      const codar::core::RoutingResult& routed,
                      std::uint64_t seed) {
  const int n = logical.num_qubits();
  if (routed.initial.num_logical() != n || routed.final.num_logical() != n) {
    return SimCheck::kMismatch;
  }
  // Dense indices for every physical qubit the check has to simulate.
  std::vector<Qubit> index(
      static_cast<std::size_t>(routed.circuit.num_qubits()), -1);
  int used = 0;
  auto touch = [&](Qubit p) {
    Qubit& slot = index[static_cast<std::size_t>(p)];
    if (slot < 0) slot = static_cast<Qubit>(used++);
    return used <= kMaxSimQubits;
  };
  for (Qubit q = 0; q < n; ++q) {
    if (!touch(routed.initial.physical(q)) || !touch(routed.final.physical(q))) {
      return SimCheck::kSkipped;
    }
  }
  for (const codar::ir::Gate& g : routed.circuit.gates()) {
    for (const Qubit p : g.qubits()) {
      if (!touch(p)) return SimCheck::kSkipped;
    }
  }
  for (Qubit& slot : index) slot = std::max<Qubit>(slot, 0);  // untouched

  std::vector<Qubit> at_initial(static_cast<std::size_t>(n));
  std::vector<Qubit> at_final(static_cast<std::size_t>(n));
  for (Qubit q = 0; q < n; ++q) {
    const auto i = static_cast<std::size_t>(q);
    at_initial[i] =
        index[static_cast<std::size_t>(routed.initial.physical(q))];
    at_final[i] = index[static_cast<std::size_t>(routed.final.physical(q))];
  }

  // A random product state, so a wrong layout or a dropped gate cannot
  // hide behind the permutation-invariant |0...0>.
  std::mt19937_64 rng(seed);
  auto angle = [&rng] { return unit_double(rng()) * 2.0 * std::numbers::pi; };
  Circuit prep(n);
  for (Qubit q = 0; q < n; ++q) prep.u3(q, angle(), angle(), angle());

  codar::sim::Statevector actual(used);
  actual.apply(prep.remapped(at_initial, used));
  actual.apply(routed.circuit.remapped(index, used));

  codar::sim::Statevector expected(used);
  expected.apply(prep.remapped(at_final, used));
  expected.apply(logical.remapped(at_final, used));

  for (std::size_t i = 0; i < actual.dim(); ++i) {
    if (std::abs(actual.amp(i) - expected.amp(i)) > 1e-6) {
      return SimCheck::kMismatch;
    }
  }
  return SimCheck::kMatch;
}

std::string check_report(const codar::pipeline::Pipeline& pipeline,
                         const codar::arch::Device& device,
                         const Circuit& circuit,
                         const codar::pipeline::RouteReport& report,
                         std::uint64_t seed, bool* simulated) {
  *simulated = false;
  if (!report.error.empty()) return report.name + ": " + report.error;
  if (!report.verified) return report.name + ": not verified";
  const Circuit lowered = codar::ir::decompose_toffoli(circuit);
  if (report.qubits > kMaxSimQubits ||
      lowered.num_qubits() > device.graph.num_qubits()) {
    return "";
  }
  const codar::core::RoutingResult routed = pipeline.router().route(
      lowered, pipeline.mapping().choose(lowered, device));
  if (routed.stats.swaps_inserted != report.swaps ||
      routed.circuit.size() != report.gates_out ||
      routed.stats.cycles_simulated != report.cycles) {
    return report.name + ": re-routed circuit differs from the report";
  }
  switch (check_states(lowered, routed, seed)) {
    case SimCheck::kMatch:
      *simulated = true;
      return "";
    case SimCheck::kSkipped:
      return "";
    case SimCheck::kMismatch:
      break;
  }
  return report.name + ": routed state differs from the logical state";
}

bool corrupted_output_is_caught() {
  const codar::arch::Device device = codar::arch::enfield_6x6();
  const codar::pipeline::Pipeline pipeline(device, {});
  const Circuit logical = codar::workloads::random_circuit(6, 80, 0.5, 7);
  codar::core::RoutingResult routed = pipeline.router().route(
      logical, pipeline.mapping().choose(logical, device));
  if (check_states(logical, routed, 1) != SimCheck::kMatch) return false;

  // Drop the middle gate of the routed circuit.
  Circuit dropped(routed.circuit.num_qubits(), routed.circuit.name());
  const std::size_t skip = routed.circuit.size() / 2;
  for (std::size_t i = 0; i < routed.circuit.size(); ++i) {
    if (i != skip) dropped.add(routed.circuit.gates()[i]);
  }
  routed.circuit = std::move(dropped);
  return check_states(logical, routed, 1) == SimCheck::kMismatch;
}

}  // namespace perfbench
