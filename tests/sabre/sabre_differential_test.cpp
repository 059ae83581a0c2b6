// Differential equivalence: the layout-only, delta-scored SABRE router must
// reproduce the original loop (kept verbatim in
// tests/support/rescan_sabre.hpp) exactly — route() gate-for-gate with the
// same stats and final layout, initial_mapping() layout-for-layout. Covers
// the 71-benchmark suite on three devices plus 72 seeded random circuits
// under config variants that force escapes, empty and tiny extended sets,
// and constant decay resets.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/sabre/sabre_router.hpp"
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"
#include "support/rescan_sabre.hpp"

namespace codar::sabre {
namespace {

using core::RoutingResult;
using ir::Circuit;
using ir::Qubit;

void expect_same_routing(const arch::Device& device, const SabreConfig& config,
                         const Circuit& circuit,
                         const layout::Layout& initial) {
  const RoutingResult fast = SabreRouter(device, config).route(circuit, initial);
  const RoutingResult oracle =
      codar::testing::route_with_rescan_sabre(device, config, circuit, initial);

  EXPECT_EQ(fast.stats.swaps_inserted, oracle.stats.swaps_inserted);
  EXPECT_EQ(fast.stats.escape_swaps, oracle.stats.escape_swaps);
  EXPECT_EQ(fast.stats.gates_routed, oracle.stats.gates_routed);
  EXPECT_EQ(fast.stats.barriers, oracle.stats.barriers);
  EXPECT_EQ(fast.initial, oracle.initial);
  EXPECT_EQ(fast.final, oracle.final);
  ASSERT_EQ(fast.circuit.size(), oracle.circuit.size()) << circuit.name();
  for (std::size_t i = 0; i < oracle.circuit.size(); ++i) {
    ASSERT_EQ(fast.circuit.gate(i), oracle.circuit.gate(i))
        << "first divergence at output position " << i << " on "
        << circuit.name();
  }
  EXPECT_EQ(qasm::to_qasm(fast.circuit), qasm::to_qasm(oracle.circuit));
}

void expect_same_mapping(const arch::Device& device, const SabreConfig& config,
                         const Circuit& circuit, int rounds,
                         std::uint64_t seed) {
  EXPECT_EQ(SabreRouter(device, config).initial_mapping(circuit, rounds, seed),
            codar::testing::initial_mapping_with_rescan_sabre(
                device, config, circuit, rounds, seed))
      << circuit.name() << " rounds=" << rounds << " seed=" << seed;
}

/// The published defaults plus the corners they rarely reach: no
/// look-ahead, a one-gate extended set, an escape on every blocked step,
/// and a decay reset after every SWAP.
std::vector<SabreConfig> config_variants() {
  SabreConfig standard;
  SabreConfig no_lookahead;
  no_lookahead.extended_set_size = 0;
  SabreConfig one_lookahead;
  one_lookahead.extended_set_size = 1;
  SabreConfig always_escape;
  always_escape.stagnation_threshold = 1;
  SabreConfig reset_every_swap;
  reset_every_swap.decay_reset_interval = 1;
  return {standard, no_lookahead, one_lookahead, always_escape,
          reset_every_swap};
}

arch::Device device_by_name(const std::string& name) {
  if (name == "enfield") return arch::enfield_6x6();
  if (name == "tokyo") return arch::ibm_q20_tokyo();
  if (name == "grid6x6") return arch::grid(6, 6);
  if (name == "linear6") return arch::linear(6);
  if (name == "ring8") return arch::ring(8);
  if (name == "grid3x3") return arch::grid(3, 3);
  throw std::runtime_error("unknown device " + name);
}

// --- The 71-benchmark suite -------------------------------------------------

class SuiteDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteDifferential, MappingAndRoutingMatchOracle) {
  const arch::Device dev = device_by_name(GetParam());
  const SabreConfig config;
  std::size_t checked = 0;
  for (const workloads::BenchmarkSpec& spec : workloads::benchmark_suite()) {
    if (spec.circuit.num_qubits() > dev.graph.num_qubits()) continue;
    const layout::Layout initial =
        codar::testing::initial_mapping_with_rescan_sabre(
            dev, config, spec.circuit, /*rounds=*/3, /*seed=*/17);
    EXPECT_EQ(SabreRouter(dev, config).initial_mapping(spec.circuit),
              initial)
        << spec.name;
    expect_same_routing(dev, config, spec.circuit, initial);
    ++checked;
  }
  EXPECT_GE(checked, 68u);  // tokyo skips the three 36-qubit programs
}

INSTANTIATE_TEST_SUITE_P(Devices, SuiteDifferential,
                         ::testing::Values("enfield", "tokyo", "grid6x6"));

// --- Seeded random circuits -------------------------------------------------

struct DiffCase {
  const char* device;
  int num_qubits;
  int num_gates;
  double two_qubit_fraction;
  std::uint64_t seed;
};

/// Inserts a three-qubit barrier mid-circuit (operands out of order, so
/// its predecessor list needs the descending sort) plus trailing
/// measurements, so the backward DAG read sees a many-predecessor node.
Circuit with_fences(const Circuit& c) {
  Circuit out(c.num_qubits(), c.name() + "_fenced");
  const Qubit last = c.num_qubits() - 1;
  const Qubit fence[] = {last, 0, last / 2};
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i == c.size() / 2) out.barrier(fence);
    out.add(c.gate(i));
  }
  out.cx(0, last);
  out.measure(0);
  return out;
}

class RandomDifferential : public ::testing::TestWithParam<DiffCase> {};

// 12 cases x 3 seeds x {plain, fenced} = 72 circuits, each routed and
// initial-mapped for rounds 1-3 under all 5 config variants.
TEST_P(RandomDifferential, MatchesOracleAcrossConfigs) {
  const DiffCase& tc = GetParam();
  const arch::Device dev = device_by_name(tc.device);
  for (const std::uint64_t seed : {tc.seed, tc.seed + 100, tc.seed + 200}) {
    const Circuit plain = workloads::random_circuit(
        tc.num_qubits, tc.num_gates, tc.two_qubit_fraction, seed);
    const Circuit fenced = with_fences(plain);
    for (const SabreConfig& config : config_variants()) {
      for (const Circuit* c : {&plain, &fenced}) {
        const layout::Layout start = layout::random_layout(
            c->num_qubits(), dev.graph.num_qubits(), seed);
        expect_same_routing(dev, config, *c, start);
        for (int rounds = 1; rounds <= 3; ++rounds) {
          expect_same_mapping(dev, config, *c, rounds, seed + rounds);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedCircuits, RandomDifferential,
    ::testing::Values(DiffCase{"linear6", 6, 80, 0.5, 41},
                      DiffCase{"linear6", 4, 120, 0.7, 42},
                      DiffCase{"ring8", 8, 100, 0.4, 43},
                      DiffCase{"ring8", 6, 150, 0.5, 44},
                      DiffCase{"grid3x3", 9, 150, 0.5, 45},
                      DiffCase{"grid3x3", 7, 200, 0.6, 46},
                      DiffCase{"tokyo", 20, 300, 0.5, 47},
                      DiffCase{"tokyo", 16, 250, 0.4, 48},
                      DiffCase{"tokyo", 12, 180, 0.6, 49},
                      DiffCase{"enfield", 36, 400, 0.5, 50},
                      DiffCase{"grid6x6", 30, 300, 0.6, 51},
                      DiffCase{"grid6x6", 10, 200, 0.8, 52}),
    [](const ::testing::TestParamInfo<DiffCase>& pinfo) {
      const DiffCase& p = pinfo.param;
      return std::string(p.device) + "_q" + std::to_string(p.num_qubits) +
             "_g" + std::to_string(p.num_gates) + "_s" +
             std::to_string(p.seed);
    });

// The on-demand distance backend takes the oracle path instead of the
// dense-matrix fast path; both must score identically.
TEST(SabreDifferential, OnDemandBackendMatchesOracle) {
  arch::Device dev = arch::ibm_q20_tokyo();
  dev.graph.set_distance_policy(arch::DistancePolicy::kOnDemand);
  const Circuit c = workloads::random_circuit(18, 250, 0.5, 53);
  for (const SabreConfig& config : config_variants()) {
    expect_same_routing(dev, config, c,
                        layout::Layout(c.num_qubits(), dev.graph.num_qubits()));
    expect_same_mapping(dev, config, c, 2, 53);
  }
}

}  // namespace
}  // namespace codar::sabre
