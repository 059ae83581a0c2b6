// Estimated-success-probability (ESP) complement to Fig. 9: the analytic
// fidelity proxy of cost::FidelityModel (gate fidelities × readout ×
// idle-window decoherence under T1/T2) lets us probe the
// SWAP-count-vs-schedule-length trade-off on devices far beyond
// density-matrix reach. Reported for CODAR and SABRE across a suite slice
// on IBM Q20 Tokyo and Google Sycamore, with Table I's superconducting
// gate fidelities.

#include <cmath>
#include <iostream>

#include "codar/common/table.hpp"
#include "codar/cost/fidelity_model.hpp"
#include "codar/workloads/suite.hpp"
#include "support/harness.hpp"

int main() {
  using namespace codar;
  bench::print_header("ESP - analytic fidelity proxy (Fig. 9 complement)");

  const double coherence_cycles = 2000.0;
  std::cout << "gate fidelities: superconducting preset (F2q = 0.965, "
               "SWAP = 0.965^3); coherence T1 = T2 = "
            << coherence_cycles << " cycles\n\n";

  for (arch::Device dev :
       {arch::ibm_q20_tokyo(), arch::google_sycamore54()}) {
    dev.fidelities = arch::FidelityMap::superconducting();
    dev.coherence = arch::Coherence{coherence_cycles, coherence_cycles};
    std::cout << "--- " << dev.name << " ---\n\n";
    const sabre::SabreRouter sabre(dev);
    const core::CodarRouter codar(dev);
    const cost::FidelityModel model(dev);
    Table table({"benchmark", "ESP CODAR", "ESP SABRE", "gate factor C/S",
                 "decoherence factor C/S"});
    double sum_codar = 0.0, sum_sabre = 0.0;
    int count = 0;
    for (const auto& spec : workloads::benchmark_suite()) {
      if (spec.circuit.num_qubits() > dev.graph.num_qubits()) continue;
      if (spec.circuit.size() > 700 || spec.circuit.size() < 30) continue;
      const layout::Layout initial =
          sabre.initial_mapping(spec.circuit, 2, 17);
      const cost::EspEstimate esp_codar =
          model.estimate(codar.route(spec.circuit, initial).circuit);
      const cost::EspEstimate esp_sabre =
          model.estimate(sabre.route(spec.circuit, initial).circuit);
      table.add_row(
          {spec.name, fmt_fixed(esp_codar.esp(), 4),
           fmt_fixed(esp_sabre.esp(), 4),
           fmt_fixed(std::exp(esp_codar.log_gate - esp_sabre.log_gate), 3),
           fmt_fixed(std::exp(esp_codar.log_decoherence -
                              esp_sabre.log_decoherence),
                     3)});
      sum_codar += esp_codar.esp();
      sum_sabre += esp_sabre.esp();
      ++count;
      std::cerr << "." << std::flush;
    }
    std::cerr << "\n";
    table.print(std::cout);
    std::cout << "\naverage ESP: CODAR " << fmt_fixed(sum_codar / count, 4)
              << " vs SABRE " << fmt_fixed(sum_sabre / count, 4)
              << "  (CODAR trades a lower gate factor — more SWAPs — for a "
                 "higher decoherence factor — less idle time)\n\n";
  }
  return 0;
}
