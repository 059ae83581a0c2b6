// The batch workloads: a fixed circuit set compiled through
// pipeline::Pipeline::run, one circuit after another on one thread, the way
// `codar --suite --threads 1` does it.
//
//   suite_batch  the 71-circuit suite on enfield, default pipeline (sabre
//                initial mapping, codar router, verify on). The paper's
//                set; initial mapping plus routing are nearly all of it.
//   grid_large   one random 2500-qubit, 25000-gate circuit on grid-50x50
//                with identity initial mapping: the on-demand distance
//                oracle regime, where routing is all the work and initial
//                mapping none.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"

#include "bench.hpp"
#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using codar::arch::Device;
using codar::ir::Circuit;
using codar::pipeline::Pipeline;
using codar::pipeline::RouteReport;

/// `codar --suite --device enfield --threads 1` totals at the commit that
/// introduced this benchmark: the suite's output quality is pinned.
constexpr std::uint64_t kSuiteSwaps = 25103;
constexpr std::uint64_t kSuiteWeightedDepth = 54196;

struct BatchWorkload {
  std::string device;
  codar::pipeline::RoutingSpec spec;
  std::vector<Circuit> circuits;
  bool pin_suite_totals = false;
};

/// Set-ups per iteration. Spreading them over the whole run makes the
/// median of even a microsecond set-up repeat from run to run.
constexpr int kSetupsPerIteration = 25;

struct Compiler {
  std::unique_ptr<Device> device;
  std::unique_ptr<Pipeline> pipeline;
};

/// Program set-up before the first result: device build, distance-oracle
/// preparation and Pipeline construction.
Compiler set_up(const BatchWorkload& w, Tracer& tracer, std::uint64_t rep) {
  Compiler c;
  {
    const ScopedSpan span(tracer, "arch.device_build", 0, rep);
    c.device = std::make_unique<Device>(
        codar::pipeline::DeviceRegistry::instance().make(w.device));
  }
  {
    const ScopedSpan span(tracer, "arch.oracle_prepare", 0, rep);
    c.device->graph.prepare();
  }
  const ScopedSpan span(tracer, "pipeline.construct", 0, rep);
  c.pipeline = std::make_unique<Pipeline>(*c.device, w.spec);
  return c;
}

struct Totals {
  std::uint64_t swaps = 0;
  std::uint64_t depth = 0;
  std::uint64_t cycles = 0;
  std::uint64_t gates_routed = 0;

  friend bool operator==(const Totals&, const Totals&) = default;
};

RunResult run_batch(const Args& args, const BatchWorkload& w) {
  RunResult r;

  Tracer setup_tracer(args.trace);
  std::vector<double> setup_s;
  Compiler compiler;
  const Clock::time_point epoch = Clock::now();

  // Untraced and (under --trace 1) traced iterations alternate, so the
  // tracing overhead is measured under the same conditions.
  std::vector<double> plain_s, traced_s, peak_mb;
  std::vector<std::vector<double>> circuit_s(w.circuits.size());
  std::vector<std::map<std::string, double>> traced_self;
  std::vector<RouteReport> first;
  Totals totals;
  for (int it = 0;; ++it) {
    const bool traced = args.trace && it % 2 == 1;
    Tracer tracer(traced);
    Totals t;
    // Every iteration compiles on the first set-up's device, so lazily
    // filled distance-oracle rows are warm after the first iteration
    // (cold first iterations on grid:50x50 varied too much to compare).
    for (int k = 0; k < kSetupsPerIteration; ++k) {
      const Clock::time_point s0 = Clock::now();
      Compiler fresh = set_up(w, setup_tracer, setup_s.size());
      setup_s.push_back(seconds_since(s0));
      if (compiler.pipeline == nullptr) compiler = std::move(fresh);
    }
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < w.circuits.size(); ++i) {
      const Clock::time_point c0 = Clock::now();
      RouteReport report = compiler.pipeline->run(w.circuits[i]);
      const Clock::time_point c1 = Clock::now();
      if (traced) {
        const std::uint32_t id = tracer.record("pipeline.run", c0, c1, 0, i);
        record_stages(tracer, report.stage_us, c0, id, i);
      } else {
        circuit_s[i].push_back(std::chrono::duration<double>(c1 - c0).count());
      }
      ++r.attempted;
      if (!report.error.empty()) ++r.failed;
      t.swaps += report.swaps;
      t.depth += static_cast<std::uint64_t>(report.depth_out);
      t.cycles += report.cycles;
      t.gates_routed += report.gates_routed;
      if (it == 0) first.push_back(std::move(report));
    }
    (traced ? traced_s : plain_s).push_back(seconds_since(t0));
    if (!traced) {
      peak_mb.push_back(peak_rss_mb());
    } else {
      std::vector<Span> spans = tracer.take();
      // Only the first traced iteration's spans are kept for the file.
      if (traced_self.empty()) append_ndjson(r.spans, spans, epoch, it);
      traced_self.push_back(self_time_us(spans));
    }
    if (it == 0) {
      totals = t;
    } else if (!(t == totals)) {
      r.fail("iteration " + std::to_string(it) +
             " produced different exact counts than iteration 0");
    }
    if (seconds_since(epoch) >= args.seconds &&
        (!args.trace || !traced_s.empty())) {
      break;
    }
  }

  const std::vector<Span> setup_spans = setup_tracer.take();
  append_ndjson(r.spans, setup_spans, epoch, -1);

  // Output checks, outside the timed region, on the first iteration.
  std::size_t simulated = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    bool sim = false;
    const std::string reason =
        check_report(*compiler.pipeline, *compiler.device, w.circuits[i],
                     first[i], args.seed + i, &sim);
    if (!reason.empty()) {
      ++r.failed;
      r.fail(reason);
    }
    simulated += sim ? 1 : 0;
  }
  r.notes.push_back("state-vector checked " + std::to_string(simulated) +
                    " of " + std::to_string(first.size()) + " circuits");
  if (w.pin_suite_totals && !args.tiny &&
      (totals.swaps != kSuiteSwaps || totals.depth != kSuiteWeightedDepth)) {
    r.fail("suite totals swaps=" + std::to_string(totals.swaps) +
           " weighted_depth_out=" + std::to_string(totals.depth) +
           ", expected " + std::to_string(kSuiteSwaps) + " and " +
           std::to_string(kSuiteWeightedDepth));
  }
  if (r.failed != 0) r.correct = false;

  r.count("swaps", totals.swaps);
  r.count("weighted_depth_out", totals.depth);
  r.count("core.cycles", totals.cycles);
  r.count("core.gates_routed", totals.gates_routed);

  // Each circuit's time is its median over the untraced iterations, so a
  // host slowdown that hits a few iterations moves no figure; the set's
  // compile time is their sum, and the latency percentiles run over them.
  double compile_s = 0.0;
  std::vector<double> latency_ms;
  for (const std::vector<double>& samples : circuit_s) {
    const double typical = median(samples);
    compile_s += typical;
    latency_ms.push_back(typical * 1000.0);
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  r.values["setup_s"] = median(setup_s);
  r.values["compile_s"] = compile_s;
  r.values["throughput_rps"] =
      static_cast<double>(w.circuits.size()) / compile_s;
  r.values["latency_p50_ms"] = percentile(latency_ms, 0.50);
  r.values["latency_p99_ms"] = percentile(latency_ms, 0.99);
  r.values["peak_rss_mb"] = median(peak_mb);
  r.notes.push_back(std::to_string(plain_s.size()) +
                    " untraced iterations (" +
                    std::to_string(*std::min_element(plain_s.begin(),
                                                     plain_s.end())) +
                    " to " +
                    std::to_string(*std::max_element(plain_s.begin(),
                                                     plain_s.end())) +
                    " s), " + std::to_string(setup_s.size()) + " set-ups");

  if (args.trace) {
    for (const char* stage : {"pipeline.lower", "pipeline.initial",
                              "pipeline.route", "pipeline.report",
                              "pipeline.verify"}) {
      std::vector<double> per_iteration;
      for (const auto& self : traced_self) {
        const auto it = self.find(stage);
        per_iteration.push_back(it == self.end() ? 0.0 : it->second);
      }
      r.values[std::string(stage) + "_us"] = median(per_iteration);
    }
    std::vector<double> prepare_us;
    for (const Span& s : setup_spans) {
      if (std::string_view(s.name) == "arch.oracle_prepare") {
        prepare_us.push_back(
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count());
      }
    }
    r.values["arch.oracle_prepare_us"] = median(prepare_us);
    r.values["trace.overhead_share"] =
        median(traced_s) / median(plain_s) - 1.0;
  }
  return r;
}

}  // namespace

RunResult run_suite_batch(const Args& args) {
  BatchWorkload w;
  w.device = "enfield";
  w.pin_suite_totals = true;
  std::vector<codar::workloads::BenchmarkSpec> suite =
      codar::workloads::benchmark_suite();
  // The suite is ordered smallest first.
  if (args.tiny) suite.erase(suite.begin() + 10, suite.end());
  // The seed only permutes the compile order: the set, and so every
  // total, stays the paper's.
  seeded_shuffle(suite, args.seed);
  for (auto& spec : suite) {
    spec.circuit.set_name(spec.name);
    w.circuits.push_back(std::move(spec.circuit));
  }
  return run_batch(args, w);
}

RunResult run_grid_large(const Args& args) {
  BatchWorkload w;
  w.device = "grid:50x50";
  w.spec.mapping = "identity";
  w.circuits.push_back(codar::workloads::random_circuit(
      2500, args.tiny ? 2000 : 25000, 0.5, args.seed));
  return run_batch(args, w);
}

}  // namespace perfbench
