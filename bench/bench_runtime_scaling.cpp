// Router runtime scaling on large devices: routes synthetic workloads up
// to 100k gates / 2500 qubits (grid-50x50, the on-demand distance
// backend's reference device) and emits BENCH_scaling.json in the BENCH_router.json
// shape, so CI can gate swaps/makespan/cycles exactly while wall time
// stays an informational trajectory. Usage:
//
//   bench_runtime_scaling [OUTPUT.json]
//
// Every workload routes from the identity initial layout: deterministic,
// and it skips the (quadratic-ish) SABRE mapping warm-up that would
// dominate wall time at 2500 qubits without exercising the router.
// Workloads above kDenseOracleMaxQubits qubits route through the
// on-demand CSR/BFS oracle picked by the kAuto policy — this harness is
// the regression net for that backend.

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/workloads/generators.hpp"
#include "support/bench_json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Workload {
  std::string name;
  codar::arch::Device device;
  codar::ir::Circuit circuit;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace codar;

  const std::string output = argc > 1 ? argv[1] : "BENCH_scaling.json";

  // Sizes climb from the dense-oracle regime (<= 1024 qubits) into the
  // on-demand regime (grid-50x50, 2500 qubits), ending at the headline
  // 100k-gate workload. Seeds are fixed; everything below is
  // deterministic except wall_ms.
  std::vector<Workload> sweep;
  sweep.push_back({"grid16x16_rand_10k", arch::grid(16, 16),
                   workloads::random_circuit(256, 10'000, 0.5, 21)});
  sweep.push_back({"grid32x32_rand_25k", arch::grid(32, 32),
                   workloads::random_circuit(1024, 25'000, 0.5, 22)});
  sweep.push_back({"grid50x50_rand_25k", arch::grid(50, 50),
                   workloads::random_circuit(2500, 25'000, 0.5, 23)});
  sweep.push_back({"grid50x50_ising_2500", arch::grid(50, 50),
                   workloads::ising_trotter(2500, 10)});
  sweep.push_back({"grid50x50_rand_100k", arch::grid(50, 50),
                   workloads::random_circuit(2500, 100'000, 0.5, 24)});

  bench::BenchJson json;
  json.header()
      .add("device", "scaling sweep (grids up to 50x50)")
      .add("repeat", 1);
  double total_ms = 0.0;
  std::size_t total_swaps = 0;

  for (const Workload& w : sweep) {
    // Build the oracle outside the timed region: the steady-state question
    // is route() throughput, and the oracle is built once per device.
    w.device.graph.prepare();
    const core::CodarRouter router(w.device);
    const Clock::time_point start = Clock::now();
    const core::RoutingResult result = router.route(w.circuit);
    const double wall_ms = ms_since(start);
    const std::size_t swaps = result.stats.swaps_inserted;
    total_ms += wall_ms;
    total_swaps += swaps;
    std::cerr << w.name << ": " << wall_ms << " ms, " << swaps
              << " swaps\n";
    json.add_row()
        .add("name", w.name)
        .add("qubits", w.device.graph.num_qubits())
        .add("gates", w.circuit.size())
        .add("wall_ms", wall_ms)
        .add("swaps", swaps)
        .add("makespan",
             static_cast<long long>(result.stats.router_makespan))
        .add("cycles", result.stats.cycles_simulated);
  }
  json.summary()
      .add("benchmarks", sweep.size())
      .add("total_wall_ms", total_ms)
      .add("total_swaps", total_swaps);

  if (!json.write(output)) return 1;
  std::cout << "wrote " << output << " (" << sweep.size() << " workloads, "
            << total_ms << " ms total)\n";
  return 0;
}
