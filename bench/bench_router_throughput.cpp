// Router throughput over the built-in 71-benchmark suite: pure route()
// wall time per benchmark (initial mapping excluded), emitted as JSON so CI
// can archive the perf trajectory (BENCH_router.json). Usage:
//
//   bench_router_throughput [OUTPUT.json] [--repeat N]
//
// Every benchmark is routed on the 36-qubit Enfield lattice (the only
// paper device that fits the 36-qubit programs) from the shared SABRE
// reverse-traversal initial mapping; wall_ms is the minimum over N repeats
// (default 3) so one-off scheduler noise doesn't poison the trajectory.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/suite.hpp"
#include "support/bench_json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_router.json";
  int repeat = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::max(1, std::atoi(argv[++i]));
    } else {
      output = arg;
    }
  }

  const codar::arch::Device device = codar::arch::enfield_6x6();
  const codar::core::CodarRouter router(device);
  const codar::sabre::SabreRouter mapper(device);
  const std::vector<codar::workloads::BenchmarkSpec> suite =
      codar::workloads::benchmark_suite();

  codar::bench::BenchJson json;
  json.header().add("device", device.name).add("repeat", repeat);
  double total_ms = 0.0;
  std::size_t total_swaps = 0;

  for (const codar::workloads::BenchmarkSpec& spec : suite) {
    const codar::layout::Layout initial =
        mapper.initial_mapping(spec.circuit, /*rounds=*/2, /*seed=*/17);
    double wall_ms = -1.0;
    std::size_t swaps = 0;
    long long makespan = 0;
    std::size_t cycles = 0;
    for (int r = 0; r < repeat; ++r) {
      const Clock::time_point start = Clock::now();
      const codar::core::RoutingResult result =
          router.route(spec.circuit, initial);
      const double elapsed = ms_since(start);
      if (wall_ms < 0.0 || elapsed < wall_ms) wall_ms = elapsed;
      swaps = result.stats.swaps_inserted;
      makespan = static_cast<long long>(result.stats.router_makespan);
      cycles = result.stats.cycles_simulated;
    }
    total_ms += wall_ms;
    total_swaps += swaps;
    std::cerr << spec.name << ": " << wall_ms << " ms, " << swaps
              << " swaps\n";
    json.add_row()
        .add("name", spec.name)
        .add("qubits", spec.circuit.used_qubit_count())
        .add("gates", spec.circuit.size())
        .add("wall_ms", wall_ms)
        .add("swaps", swaps)
        .add("makespan", makespan)
        .add("cycles", cycles);
  }
  json.summary()
      .add("benchmarks", suite.size())
      .add("total_wall_ms", total_ms)
      .add("total_swaps", total_swaps);

  if (!json.write(output)) return 1;
  std::cout << "suite routed in " << total_ms << " ms (min-of-" << repeat
            << " per benchmark) -> " << output << "\n";
  return 0;
}
