// Fidelity-aware routing versus plain CODAR on the calibrated example
// devices: every suite benchmark that fits is routed through the real
// Pipeline under both `codar` and `codar-fid` (default weights), and the
// reported makespan / SWAP count / log-ESP pairs are emitted as JSON so CI
// can gate routing-quality drift (BENCH_fidelity.json). Usage:
//
//   bench_fidelity [OUTPUT.json] [--devices DIR]
//
// DIR is the examples/devices directory (default assumes the bench runs
// from the repo root, as CI does). log-ESP values are rounded to 12
// significant digits before emission so the committed baseline is immune
// to sub-ulp libm differences while still catching any real drift.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "codar/arch/device_json.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/workloads/suite.hpp"
#include "support/bench_json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// 12-significant-digit decimal rendering: deterministic for a given
/// double, and coarse enough to absorb cross-platform ln() ulp noise.
std::string fmt12(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace codar;
  std::string output = "BENCH_fidelity.json";
  std::string devices_dir = "examples/devices";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--devices" && i + 1 < argc) {
      devices_dir = argv[++i];
    } else {
      output = arg;
    }
  }

  const std::vector<workloads::BenchmarkSpec> suite =
      workloads::benchmark_suite();
  bench::BenchJson json;
  json.set_gated_fields({"swaps_codar", "swaps_fid", "makespan_codar",
                         "makespan_fid", "log_esp_codar", "log_esp_fid"});
  double total_ms = 0.0;
  int wins = 0, comparisons = 0;

  for (const char* file : {"tokyo_calibrated.json", "tokyo-noisy.json"}) {
    const std::string path = devices_dir + "/" + file;
    arch::Device device = arch::load_device_file(path);
    std::string tag = file;
    tag = tag.substr(0, tag.rfind('.'));

    pipeline::RoutingSpec base;
    base.router = "codar";
    pipeline::RoutingSpec fid = base;
    fid.router = "codar-fid";
    const pipeline::Pipeline plain(device, base);
    const pipeline::Pipeline aware(device, fid);

    for (const workloads::BenchmarkSpec& spec : suite) {
      if (spec.circuit.num_qubits() > device.graph.num_qubits()) continue;
      const std::string name = tag + "/" + spec.name;
      const Clock::time_point start = Clock::now();
      const pipeline::RouteReport a = plain.run(spec.circuit);
      const pipeline::RouteReport b = aware.run(spec.circuit);
      const double wall_ms = ms_since(start);
      if (!a.ok() || !b.ok()) {
        std::cerr << "error: " << name << " failed to route: "
                  << (a.ok() ? b.error : a.error) << "\n";
        return 1;
      }
      total_ms += wall_ms;
      ++comparisons;
      if (b.log_esp > a.log_esp) ++wins;
      std::cerr << name << ": log-ESP " << fmt12(a.log_esp) << " -> "
                << fmt12(b.log_esp) << ", swaps " << a.swaps << " -> "
                << b.swaps << "\n";
      json.add_row()
          .add("name", name)
          .add("qubits", spec.circuit.used_qubit_count())
          .add("gates", spec.circuit.size())
          .add("swaps_codar", a.swaps)
          .add("swaps_fid", b.swaps)
          .add("makespan_codar", static_cast<long long>(a.depth_out))
          .add("makespan_fid", static_cast<long long>(b.depth_out))
          .raw("log_esp_codar", fmt12(a.log_esp))
          .raw("log_esp_fid", fmt12(b.log_esp))
          .add("wall_ms", wall_ms);
    }
  }

  json.summary()
      .add("benchmarks", comparisons)
      .add("esp_wins", wins)
      .add("comparisons", comparisons)
      .add("total_wall_ms", total_ms);
  if (!json.write(output)) return 1;
  std::cout << "codar-fid beat codar's log-ESP on " << wins << "/"
            << comparisons << " routes -> " << output << "\n";
  return 0;
}
