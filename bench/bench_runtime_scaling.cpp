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
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/workloads/generators.hpp"

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

struct Row {
  std::string name;
  int qubits = 0;
  std::size_t gates = 0;
  double wall_ms = 0.0;
  std::size_t swaps = 0;
  long long makespan = 0;
  std::size_t cycles = 0;
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

  std::vector<Row> rows;
  rows.reserve(sweep.size());
  double total_ms = 0.0;
  std::size_t total_swaps = 0;

  for (const Workload& w : sweep) {
    // Build the oracle outside the timed region: the steady-state question
    // is route() throughput, and the oracle is built once per device.
    w.device.graph.prepare();
    const core::CodarRouter router(w.device);
    Row row;
    row.name = w.name;
    row.qubits = w.device.graph.num_qubits();
    row.gates = w.circuit.size();
    const Clock::time_point start = Clock::now();
    const core::RoutingResult result = router.route(w.circuit);
    row.wall_ms = ms_since(start);
    row.swaps = result.stats.swaps_inserted;
    row.makespan = static_cast<long long>(result.stats.router_makespan);
    row.cycles = result.stats.cycles_simulated;
    total_ms += row.wall_ms;
    total_swaps += row.swaps;
    std::cerr << row.name << ": " << row.wall_ms << " ms, " << row.swaps
              << " swaps\n";
    rows.push_back(std::move(row));
  }

  std::ostringstream json;
  json << "{\"device\": \"scaling sweep (grids up to 50x50)\","
       << " \"repeat\": 1,\n \"results\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (i > 0) json << ",";
    json << "\n  {\"name\": \"" << r.name << "\", \"qubits\": " << r.qubits
         << ", \"gates\": " << r.gates << ", \"wall_ms\": " << r.wall_ms
         << ", \"swaps\": " << r.swaps << ", \"makespan\": " << r.makespan
         << ", \"cycles\": " << r.cycles << "}";
  }
  json << "\n ],\n \"summary\": {\"benchmarks\": " << rows.size()
       << ", \"total_wall_ms\": " << total_ms
       << ", \"total_swaps\": " << total_swaps << "}}\n";

  std::ofstream out(output);
  if (!out.is_open()) {
    std::cerr << "cannot write " << output << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << output << " (" << rows.size() << " workloads, "
            << total_ms << " ms total)\n";
  return 0;
}
