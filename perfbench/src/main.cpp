// perfbench: the end-to-end benchmark program. One invocation runs one
// workload for about --seconds, checks every output, and prints one JSON
// line with the metrics of the untraced run (--trace 0) or the per-layer
// metrics of the traced run (--trace 1). run.py builds and wraps it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--work-dir DIR] [--trace-out FILE]
//   perfbench --selftest
//
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()));
  return sorted[std::min(sorted.size() - 1, rank)];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by the untraced run; BENCHMARK.json "end_to_end".
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"compile_s", "s"},
    {"throughput_rps", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"weighted_depth_out", "count"},
    {"swaps", "count"},
    {"peak_rss_mb", "MiB"},
};

/// Printed by the traced run; BENCHMARK.json "per_layer". Layers a
/// workload does not exercise read 0.
constexpr MetricSpec kPerLayer[] = {
    {"pipeline.lower_us", "us"},
    {"pipeline.initial_us", "us"},
    {"pipeline.route_us", "us"},
    {"pipeline.report_us", "us"},
    {"pipeline.verify_us", "us"},
    {"core.cycles", "count"},
    {"core.gates_routed", "count"},
    {"arch.oracle_prepare_us", "us"},
    {"qasm.parse_us", "us"},
    {"service.parse_us", "us"},
    {"service.render_us", "us"},
    {"service.cache_lookup_us", "us"},
    {"service.cache_mem_hits", "count"},
    {"service.cache_disk_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.cache_hit_ratio", "share"},
    {"service.wait_us_p50", "us"},
    {"service.wait_us_p99", "us"},
    {"store.open_us", "us"},
    {"store.get_count", "count"},
    {"store.get_us", "us"},
    {"store.put_count", "count"},
    {"store.put_us", "us"},
    {"store.put_bytes", "bytes"},
    {"trace.overhead_share", "share"},
    {"error_rate", "share"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload suite_batch|grid_large|"
               "serve_hot|serve_cold --seed N --seconds S --trace 0|1 "
               "[--tiny] [--work-dir DIR] [--trace-out FILE]\n"
               "       perfbench --selftest\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--selftest") {
        const bool caught = corrupted_output_is_caught();
        std::cout << "corrupted routed circuit "
                  << (caught ? "caught" : "NOT caught") << "\n";
        return caught ? 0 : 1;
      } else if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        args.trace = value() == "1";
      } else if (arg == "--tiny") {
        args.tiny = true;
      } else if (arg == "--work-dir") {
        args.work_dir = value();
      } else if (arg == "--trace-out") {
        args.trace_out = value();
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  RunResult result;
  try {
    if (args.workload == "suite_batch") {
      result = run_suite_batch(args);
    } else if (args.workload == "grid_large") {
      result = run_grid_large(args);
    } else if (args.workload == "serve_hot") {
      result = run_serve_hot(args);
    } else if (args.workload == "serve_cold") {
      result = run_serve_cold(args);
    } else {
      return usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  result.values["error_rate"] =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  if (result.attempted == 0) result.fail("no operation was attempted");

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out, std::ios::binary | std::ios::trunc);
    out << result.spans;
    if (!out) result.fail("cannot write " + args.trace_out);
  }

  if (!args.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      if (!result.values.contains(m.name)) {
        result.fail(std::string("metric ") + m.name + " was not measured");
      }
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& m, double value) {
    json << (first ? "" : ", ") << "\"" << m.name
         << "\": {\"value\": " << number(value) << ", \"unit\": \"" << m.unit
         << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m, result.values[m.name]);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m, result.values[m.name]);
  }
  json << "}, \"exact\": {";
  first = true;
  for (const auto& [name, value] : result.exact) {
    json << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  json << "}, \"notes\": [";
  first = true;
  for (const std::string& note : result.notes) {
    json << (first ? "" : ", ") << json_string(note);
    first = false;
  }
  json << "]}";
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}
