#include "codar/core/verify.hpp"

#include <gtest/gtest.h>

#include "codar/arch/device.hpp"
#include "codar/core/codar_router.hpp"
#include "codar/core/commutativity.hpp"
#include "codar/ir/decompose.hpp"
#include "support/rich_circuit.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using layout::Layout;

/// Hand-built valid routing: CX q0,q2 on a 3-qubit line via one SWAP.
struct Fixture {
  arch::Device device = arch::linear(3);
  Circuit original{3, "orig"};
  RoutingResult result{Circuit{3}, Layout{3, 3}, Layout{3, 3}, {}};

  Fixture() {
    original.h(0);
    original.cx(0, 2);

    Circuit routed(3);
    routed.h(0);
    routed.swap(1, 2);  // moves logical q2 to physical 1
    routed.cx(0, 1);
    Layout final_layout(3, 3);
    final_layout.swap_physical(1, 2);
    result = RoutingResult{std::move(routed), Layout{3, 3}, final_layout, {}};
  }
};

TEST(VerifyRouting, AcceptsValidResult) {
  const Fixture f;
  const VerifyOutcome outcome =
      verify_routing(f.original, f.result, f.device.graph);
  EXPECT_TRUE(outcome.valid) << outcome.reason;
}

TEST(VerifyRouting, RejectsCouplingViolation) {
  Fixture f;
  Circuit bad(3);
  bad.h(0);
  bad.cx(0, 2);  // 0-2 not an edge of the line
  f.result.circuit = std::move(bad);
  f.result.final = Layout(3, 3);
  const VerifyOutcome outcome =
      verify_routing(f.original, f.result, f.device.graph);
  EXPECT_FALSE(outcome.valid);
  EXPECT_NE(outcome.reason.find("coupling"), std::string::npos);
}

TEST(VerifyRouting, RejectsDroppedGate) {
  Fixture f;
  Circuit bad(3);
  bad.h(0);  // CX missing
  f.result.circuit = std::move(bad);
  f.result.final = Layout(3, 3);
  const VerifyOutcome outcome =
      verify_routing(f.original, f.result, f.device.graph);
  EXPECT_FALSE(outcome.valid);
  EXPECT_NE(outcome.reason.find("dropped"), std::string::npos);
}

TEST(VerifyRouting, RejectsInventedGate) {
  Fixture f;
  Circuit bad = f.result.circuit;
  bad.x(2);  // not in the original
  f.result.circuit = std::move(bad);
  const VerifyOutcome outcome =
      verify_routing(f.original, f.result, f.device.graph);
  EXPECT_FALSE(outcome.valid);
}

TEST(VerifyRouting, RejectsIllegalReordering) {
  // Original: H then T on the same wire (they do not commute).
  const arch::Device device = arch::linear(2);
  Circuit original(2);
  original.h(0);
  original.t(0);
  Circuit reordered(2);
  reordered.t(0);
  reordered.h(0);
  const RoutingResult result{std::move(reordered), Layout(2, 2), Layout(2, 2),
                             {}};
  const VerifyOutcome outcome =
      verify_routing(original, result, device.graph);
  EXPECT_FALSE(outcome.valid);
}

TEST(VerifyRouting, AcceptsCommutingReordering) {
  // CX q1,q3 and CX q2,q3 share a target and commute — either order is a
  // faithful execution (the paper's CF example). Star-ish device where
  // both pairs are coupled directly.
  arch::CouplingGraph g(4);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  const arch::Device device{"star4", std::move(g), arch::DurationMap()};
  Circuit original(4);
  original.cx(1, 3);
  original.cx(2, 3);
  Circuit reordered(4);
  reordered.cx(2, 3);
  reordered.cx(1, 3);
  const RoutingResult result{std::move(reordered), Layout(4, 4), Layout(4, 4),
                             {}};
  const VerifyOutcome outcome =
      verify_routing(original, result, device.graph);
  EXPECT_TRUE(outcome.valid) << outcome.reason;
}

TEST(VerifyRouting, RejectsWrongFinalLayout) {
  Fixture f;
  f.result.final = Layout(3, 3);  // claims identity, but a SWAP happened
  const VerifyOutcome outcome =
      verify_routing(f.original, f.result, f.device.graph);
  EXPECT_FALSE(outcome.valid);
  EXPECT_NE(outcome.reason.find("layout"), std::string::npos);
}

TEST(VerifyRouting, RejectsGateOnUnoccupiedQubit) {
  const arch::Device device = arch::linear(3);
  Circuit original(1);
  original.h(0);
  Circuit routed(3);
  routed.h(2);  // physical 2 hosts no logical qubit
  const RoutingResult result{std::move(routed), Layout(1, 3), Layout(1, 3),
                             {}};
  const VerifyOutcome outcome = verify_routing(original, result, device.graph);
  EXPECT_FALSE(outcome.valid);
}

/// A circuit of the whole routable alphabet. Input SWAPs are lowered to
/// CXs, as the pipeline does: the verifier reads every routed SWAP as a
/// layout change.
Circuit rich_input(int num_qubits, std::uint64_t seed) {
  return ir::decompose_swaps(codar::testing::rich_circuit(
      num_qubits, 200, seed, /*allow_ccx=*/false));
}

TEST(VerifyRouting, RichCircuitsRoundTrip) {
  const arch::Device device = arch::grid(3, 3);
  CodarConfig no_commut;
  no_commut.commutativity_aware = false;
  for (const std::uint64_t seed : {71, 72, 73}) {
    const Circuit original = rich_input(9, seed);
    for (const CodarConfig& config : {CodarConfig{}, no_commut}) {
      const RoutingResult result = CodarRouter(device, config).route(original);
      const VerifyOutcome outcome =
          verify_routing(original, result, device.graph);
      EXPECT_TRUE(outcome.valid) << outcome.reason << " (seed " << seed << ")";
    }
  }
}

TEST(VerifyRouting, AdjacentSwapIsAcceptedIffThePairCommutes) {
  // On a complete graph with identity layouts the only question is order:
  // exchanging gates k and k+1 is a faithful execution exactly when they
  // commute.
  const int n = 5;
  arch::CouplingGraph g(n);
  for (ir::Qubit a = 0; a < n; ++a) {
    for (ir::Qubit b = a + 1; b < n; ++b) g.add_edge(a, b);
  }
  const arch::Device device{"complete5", std::move(g), arch::DurationMap()};
  int rejected = 0;
  for (const std::uint64_t seed : {81, 82}) {
    const Circuit original = rich_input(n, seed);
    for (std::size_t k = 0; k + 1 < original.size(); ++k) {
      Circuit exchanged(n);
      for (std::size_t i = 0; i < original.size(); ++i) {
        const std::size_t from = i == k ? k + 1 : i == k + 1 ? k : i;
        exchanged.add(original.gate(from));
      }
      const RoutingResult result{std::move(exchanged), Layout(n, n),
                                 Layout(n, n), {}};
      const bool commute =
          gates_commute(original.gate(k), original.gate(k + 1));
      EXPECT_EQ(verify_routing(original, result, device.graph).valid, commute)
          << original.gate(k).to_string() << " / "
          << original.gate(k + 1).to_string() << " at " << k;
      rejected += commute ? 0 : 1;
    }
  }
  EXPECT_GT(rejected, 20);
}

}  // namespace
}  // namespace codar::core
