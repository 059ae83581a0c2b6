// Using codar as a library through the umbrella header and the unified
// pipeline API: pick a router and an initial mapping by name, run the
// full compilation pipeline, and list every router and mapping there is.
// This is the example the README's "use codar as a library" snippet is
// drawn from.
//
//   $ ./library_api

#include <iostream>

#include "codar/codar.hpp"

int main() {
  using namespace codar;

  // A 6-qubit QFT from the built-in workload generators.
  const ir::Circuit circuit = workloads::qft(6);
  const arch::Device device = arch::ibm_q20_tokyo();

  // The spec names the router and the initial mapping; every knob that
  // can change a routed result lives here too.
  pipeline::RoutingSpec spec;
  spec.router = "codar";    // or "codar-fid", "sabre", "astar"
  spec.mapping = "sabre";   // or "identity", "greedy"

  // The pipeline runs: lower -> initial mapping -> route -> verify.
  const pipeline::Pipeline pipe(device, spec);
  const pipeline::RouteReport report = pipe.run(circuit, /*keep_qasm=*/true);
  if (!report.ok()) {
    std::cerr << "routing failed: " << report.error << "\n";
    return 1;
  }
  std::cout << circuit.name() << " on " << device.name << " via "
            << pipe.router().name() << " from a " << pipe.mapping().name()
            << " initial mapping\n  swaps=" << report.swaps
            << " weighted depth " << report.depth_in << " -> "
            << report.depth_out << ", verified\n\n"
            << "routed program (keep_qasm=true):\n"
            << report.routed_qasm << "\n";

  // Everything selectable by name, straight from the pipeline's tables —
  // the same lists `codar --list-routers` / `--list-mappings` print.
  std::cout << "routers:\n";
  for (const pipeline::PassInfo& p : pipeline::kRouters) {
    std::cout << "  " << p.name << " — " << p.description << "\n";
  }
  std::cout << "initial mappings:\n";
  for (const pipeline::PassInfo& p : pipeline::kMappings) {
    std::cout << "  " << p.name << " — " << p.description << "\n";
  }
  return 0;
}
