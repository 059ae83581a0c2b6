// Router throughput over the built-in 71-benchmark suite, emitted as JSON
// so CI can archive the perf trajectory (BENCH_router.json). Usage:
//
//   bench_router_throughput [OUTPUT.json] [--repeat N]
//
// Every benchmark is routed on the 36-qubit Enfield lattice (the only
// paper device that fits the 36-qubit programs) from the shared SABRE
// reverse-traversal initial mapping. Two stages are timed separately, each
// as the minimum over N repeats (default 3) so one-off scheduler noise
// doesn't poison the trajectory: initial_ms is the initial_mapping() call
// (rounds=2, seed=17) and wall_ms the CODAR route() from its layout.
// Gated per row: swaps/makespan/cycles of the route and layout_fp, an
// FNV-1a fingerprint of the initial layout's logical->physical vector.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/common/fnv.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/suite.hpp"
#include "support/bench_json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Minimum wall time of `repeat` calls of `run`, milliseconds.
template <typename F>
double min_ms(int repeat, F&& run) {
  double best = -1.0;
  for (int r = 0; r < repeat; ++r) {
    const Clock::time_point start = Clock::now();
    run();
    const double elapsed =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// FNV-1a over the logical->physical vector, as 16 hex digits.
std::string layout_fingerprint(const codar::layout::Layout& layout) {
  codar::common::Fnv1a h;
  h.u64(layout.l2p().size());
  for (const codar::ir::Qubit q : layout.l2p()) h.i64(q);
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h.value();
  return out.str();
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
  json.set_gated_fields({"swaps", "makespan", "cycles", "layout_fp"});
  double total_ms = 0.0;
  double total_initial_ms = 0.0;
  std::size_t total_swaps = 0;

  for (const codar::workloads::BenchmarkSpec& spec : suite) {
    std::optional<codar::layout::Layout> initial;
    const double initial_ms = min_ms(repeat, [&] {
      initial = mapper.initial_mapping(spec.circuit, /*rounds=*/2,
                                       /*seed=*/17);
    });
    std::optional<codar::core::RoutingResult> result;
    const double wall_ms =
        min_ms(repeat, [&] { result = router.route(spec.circuit, *initial); });
    const std::size_t swaps = result->stats.swaps_inserted;
    total_ms += wall_ms;
    total_initial_ms += initial_ms;
    total_swaps += swaps;
    std::cerr << spec.name << ": " << initial_ms << " ms initial, " << wall_ms
              << " ms route, " << swaps << " swaps\n";
    json.add_row()
        .add("name", spec.name)
        .add("qubits", spec.circuit.used_qubit_count())
        .add("gates", spec.circuit.size())
        .add("initial_ms", initial_ms)
        .add("wall_ms", wall_ms)
        .add("swaps", swaps)
        .add("makespan",
             static_cast<long long>(result->stats.router_makespan))
        .add("cycles", result->stats.cycles_simulated)
        .add("layout_fp", layout_fingerprint(*initial));
  }
  json.summary()
      .add("benchmarks", suite.size())
      .add("total_initial_ms", total_initial_ms)
      .add("total_wall_ms", total_ms)
      .add("total_swaps", total_swaps);

  if (!json.write(output)) return 1;
  std::cout << "suite initial-mapped in " << total_initial_ms
            << " ms, routed in " << total_ms << " ms (min-of-" << repeat
            << " per benchmark) -> " << output << "\n";
  return 0;
}
