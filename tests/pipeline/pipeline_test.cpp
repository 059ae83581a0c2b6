// Tests for the composable compilation pipeline: a round-trip over every
// router × mapping combination, the stage sequence and its
// instrumentation, failure reporting, and the JSON contract that stage
// timings stay out of the stats unless the caller opted in (--timing).

#include <algorithm>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/cli/report.hpp"
#include "codar/pipeline/pipeline.hpp"
#include "codar/workloads/suite.hpp"

namespace codar::pipeline {
namespace {

/// The paper's Fig. 2 motivating program: T q[1] and CX q[0],q[2] start
/// together; CX q[0],q[3] needs a SWAP on any device where Q0 and Q3 are
/// not adjacent (true on tokyo and on the 2x2 lattice alike).
ir::Circuit fig2_program() {
  ir::Circuit c(4, "fig2");
  c.t(1);
  c.cx(0, 2);
  c.cx(0, 3);
  return c;
}

bool has_stage(const RouteReport& report, std::string_view stage) {
  return std::any_of(report.stage_us.begin(), report.stage_us.end(),
                     [&](const StageTiming& t) { return t.stage == stage; });
}

TEST(Pipeline, EveryRouterTimesEveryMappingRoutesAndVerifies) {
  const arch::Device device = arch::ibm_q20_tokyo();
  const ir::Circuit circuit = fig2_program();
  for (const PassInfo& router : kRouters) {
    for (const PassInfo& mapping : kMappings) {
      RoutingSpec spec;
      spec.router = std::string(router.name);
      spec.mapping = std::string(mapping.name);
      const Pipeline pipe(device, spec);
      EXPECT_EQ(pipe.router().name(), router.name);
      EXPECT_EQ(pipe.mapping().name(), mapping.name);

      const RouteReport report = pipe.run(circuit);
      const std::string combo = spec.router + " x " + spec.mapping;
      EXPECT_TRUE(report.ok()) << combo << ": " << report.error;
      EXPECT_TRUE(report.verified) << combo;
      EXPECT_EQ(report.gates_in, 3u) << combo;
      EXPECT_EQ(report.gates_out, report.gates_in + report.swaps) << combo;
      EXPECT_GE(report.depth_out, report.depth_in) << combo;
    }
  }
}

TEST(Pipeline, RecordsTheStageSequence) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec spec;
  const Pipeline pipe(device, spec);
  const RouteReport report =
      pipe.run(fig2_program(), /*keep_qasm=*/true);
  ASSERT_TRUE(report.ok()) << report.error;
  // Default spec: no peephole stage; verify on; render requested.
  const char* expected[] = {"lower", "initial", "route",
                            "report", "verify", "render"};
  ASSERT_EQ(report.stage_us.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(report.stage_us[i].stage, expected[i]);
  }
  // route_us is the "route" stage by definition.
  EXPECT_EQ(report.route_us, report.stage_us[2].us);
  EXPECT_FALSE(report.routed_qasm.empty());

  RoutingSpec tweaked;
  tweaked.peephole = true;
  tweaked.verify = false;
  const RouteReport other =
      Pipeline(device, tweaked).run(fig2_program(), /*keep_qasm=*/false);
  EXPECT_TRUE(other.verify_skipped);
  EXPECT_TRUE(has_stage(other, "peephole"));
  EXPECT_FALSE(has_stage(other, "verify"));
  EXPECT_FALSE(has_stage(other, "render"));
}

TEST(Pipeline, UnknownPassNamesFailConstruction) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec bad_router;
  bad_router.router = "qiskit";
  EXPECT_THROW(Pipeline(device, bad_router), UsageError);
  RoutingSpec bad_mapping;
  bad_mapping.mapping = "annealed";
  EXPECT_THROW(Pipeline(device, bad_mapping), UsageError);

  // The CLI wrapper degrades the same failure to an error report instead
  // of throwing, matching every other per-circuit failure.
  cli::Options opts;
  opts.router = "qiskit";
  const RouteReport report =
      cli::route_circuit(fig2_program(), device, opts, /*keep_qasm=*/false);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("unknown router"), std::string::npos)
      << report.error;
}

TEST(Pipeline, OversizedCircuitFailsInTheLowerStage) {
  const arch::Device device = arch::ibm_q5_yorktown();
  RoutingSpec spec;
  ir::Circuit wide(8, "wide");
  for (ir::Qubit q = 1; q < 8; ++q) wide.cx(0, q);
  const RouteReport report = Pipeline(device, spec).run(wide);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("qubits"), std::string::npos) << report.error;
}

TEST(Pipeline, StageTimingsAreExcludedFromJsonUnlessTimingIsSet) {
  const arch::Device device = arch::ibm_q20_tokyo();
  cli::Options opts;
  const RouteReport report =
      cli::route_circuit(fig2_program(), device, opts, /*keep_qasm=*/false);
  ASSERT_TRUE(report.ok()) << report.error;
  ASSERT_FALSE(report.stage_us.empty());  // instrumentation always runs

  // Default rendering: no wall-time keys at all, so batch stats stay
  // bit-identical across runs and thread counts.
  const std::string plain = cli::to_json(report, opts);
  EXPECT_EQ(plain.find("route_us"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("stage_us"), std::string::npos) << plain;

  cli::Options timed = opts;
  timed.timing = true;
  const std::string with_timing = cli::to_json(report, timed);
  EXPECT_NE(with_timing.find("\"route_us\": "), std::string::npos)
      << with_timing;
  EXPECT_NE(with_timing.find("\"stage_us\": {\"lower\": "),
            std::string::npos)
      << with_timing;
  EXPECT_NE(with_timing.find("\"route\": "), std::string::npos)
      << with_timing;
}

// The default pipeline's suite result, pinned in tier-1: SABRE initial
// mapping + CODAR routing over all 71 benchmarks on enfield, one thread.
// These are the totals `codar --suite --device enfield --threads 1`
// prints; any change to either pass that moves them shows up here, not
// only in the benchmark harness.
TEST(Pipeline, DefaultSuiteTotalsArePinned) {
  const arch::Device device = arch::enfield_6x6();
  const Pipeline pipe(device, RoutingSpec{});
  std::size_t swaps = 0;
  long long weighted_depth_out = 0;
  std::size_t routed = 0;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    const RouteReport report = pipe.run(spec.circuit);
    ASSERT_TRUE(report.ok()) << spec.name << ": " << report.error;
    swaps += report.swaps;
    weighted_depth_out += static_cast<long long>(report.depth_out);
    ++routed;
  }
  EXPECT_EQ(routed, 71u);
  EXPECT_EQ(swaps, 25103u);
  EXPECT_EQ(weighted_depth_out, 54196);
}

}  // namespace
}  // namespace codar::pipeline
