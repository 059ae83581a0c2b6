// Tests for the fixed router and initial-mapping tables: listing order and
// the exact `--list-routers` / `--list-mappings` output, the unknown-name
// error contract, knob parsing through cli::parse_routing_flag, and the
// Router/Mapping objects a spec builds. The test suite names predate the
// tables and are kept so the test history stays continuous.

#include <sstream>

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/cli/driver.hpp"
#include "codar/cli/options.hpp"
#include "codar/pipeline/pipeline.hpp"

namespace codar::pipeline {
namespace {

/// Feeds one flag (with an optional value) to cli::parse_routing_flag.
bool parse_flag(cli::Options& opts, const std::string& flag,
                const std::string& value = "") {
  return cli::parse_routing_flag(opts, flag, [&] {
    if (value.empty()) throw UsageError(flag + " expects a value");
    return value;
  });
}

std::string listing(const std::string& flag) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(cli::run_cli({flag}, out, err), 0) << err.str();
  return out.str();
}

TEST(RouterRegistry, BuiltinsAreRegisteredInOrder) {
  ASSERT_EQ(kRouters.size(), 4u);
  EXPECT_EQ(kRouters[0].name, "codar");
  EXPECT_EQ(kRouters[1].name, "codar-fid");
  EXPECT_EQ(kRouters[2].name, "sabre");
  EXPECT_EQ(kRouters[3].name, "astar");
  EXPECT_EQ(listing("--list-routers"),
            "codar\tcontextual duration-aware remapper (the paper's router, "
            "DAC 2020)\n"
            "codar-fid\tcodar with fidelity-aware SWAP scoring "
            "(alpha*distance + beta*log-fidelity + gamma*decoherence)\n"
            "sabre\tSWAP-based bidirectional heuristic baseline "
            "(ASPLOS 2019), duration-blind\n"
            "astar\tlayered A*-search baseline (TCAD 2019), "
            "duration-blind\n");
}

TEST(MappingRegistry, BuiltinsAreRegisteredInOrder) {
  ASSERT_EQ(kMappings.size(), 3u);
  EXPECT_EQ(kMappings[0].name, "identity");
  EXPECT_EQ(kMappings[1].name, "greedy");
  EXPECT_EQ(kMappings[2].name, "sabre");
  EXPECT_EQ(listing("--list-mappings"),
            "identity\tpi(q) = q (no placement)\n"
            "greedy\tinteraction-graph greedy placement, deterministic\n"
            "sabre\tSABRE reverse-traversal refinement (the paper's "
            "protocol)\n");
}

TEST(PassRegistry, UnknownNamesListRegisteredOnes) {
  EXPECT_EQ(router_named("codar-fid").name, "codar-fid");
  EXPECT_EQ(mapping_named("greedy").name, "greedy");
  try {
    router_named("qiskit");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown router 'qiskit' "
              "(expected codar|codar-fid|sabre|astar)");
  }
  try {
    mapping_named("annealed");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown initial mapping 'annealed' "
              "(expected identity|greedy|sabre)");
  }
}

TEST(PassRegistry, RouterKnobHooksParseCodarFlags) {
  cli::Options opts;
  EXPECT_TRUE(parse_flag(opts, "--no-context"));
  EXPECT_FALSE(opts.codar.context_aware);
  EXPECT_TRUE(parse_flag(opts, "--window", "25"));
  EXPECT_EQ(opts.codar.front_window, 25);
  EXPECT_TRUE(parse_flag(opts, "--stagnation", "7"));
  EXPECT_EQ(opts.codar.stagnation_threshold, 7);
  // Malformed / out-of-range values throw the shared UsageError.
  EXPECT_THROW(parse_flag(opts, "--window", "wide"), UsageError);
  EXPECT_THROW(parse_flag(opts, "--stagnation", "0"), UsageError);
  // Flags that are not routing flags are left for the caller.
  EXPECT_FALSE(parse_flag(opts, "--batch"));
}

TEST(PassRegistry, RouterKnobHooksParseFidWeights) {
  cli::Options opts;
  EXPECT_TRUE(parse_flag(opts, "--alpha", "1.5"));
  EXPECT_EQ(opts.fid.alpha, 1.5);
  EXPECT_TRUE(parse_flag(opts, "--beta", "0"));
  EXPECT_EQ(opts.fid.beta, 0.0);
  EXPECT_TRUE(parse_flag(opts, "--gamma", "2.25"));
  EXPECT_EQ(opts.fid.gamma, 2.25);
  EXPECT_THROW(parse_flag(opts, "--beta", "steep"), UsageError);
  EXPECT_THROW(parse_flag(opts, "--beta", "inf"), UsageError);
  EXPECT_THROW(parse_flag(opts, "--gamma", "-1"), UsageError);
}

TEST(PassRegistry, MappingKnobHooksParseSeedAndRounds) {
  cli::Options opts;
  EXPECT_TRUE(parse_flag(opts, "--seed", "99"));
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_TRUE(parse_flag(opts, "--mapping-rounds", "5"));
  EXPECT_EQ(opts.mapping_rounds, 5);
  EXPECT_THROW(parse_flag(opts, "--mapping-rounds", "-1"), UsageError);
  EXPECT_THROW(parse_flag(opts, "--mapping-rounds", "0"), UsageError);
}

TEST(PassRegistry, FactoriesBuildPassesThatKnowTheirNames) {
  const arch::Device device = arch::ibm_q20_tokyo();
  RoutingSpec spec;
  for (const PassInfo& info : kRouters) {
    spec.router = std::string(info.name);
    EXPECT_EQ(Router(device, spec).name(), info.name);
  }
  for (const PassInfo& info : kMappings) {
    spec.mapping = std::string(info.name);
    EXPECT_EQ(Mapping(spec).name(), info.name);
  }
  // codar-fid validates its weights when it is built.
  spec.router = "codar-fid";
  spec.fid.gamma = -1.0;
  EXPECT_THROW(Router(device, spec), UsageError);
}

}  // namespace
}  // namespace codar::pipeline
