#include "codar/core/commutativity.hpp"

#include <array>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "codar/ir/unitary.hpp"
#include "support/rich_circuit.hpp"

namespace codar::core {
namespace {

using ir::Circuit;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

TEST(GatesCommute, DisjointAlwaysCommute) {
  EXPECT_TRUE(gates_commute(Gate::cx(0, 1), Gate::cx(2, 3)));
  EXPECT_TRUE(gates_commute(Gate::h(0), Gate::measure(1)));
  EXPECT_TRUE(gates_commute(Gate::measure(0), Gate::measure(1)));
}

TEST(GatesCommute, MeasureAndBarrierBlockOverlaps) {
  EXPECT_FALSE(gates_commute(Gate::measure(0), Gate::h(0)));
  EXPECT_FALSE(gates_commute(Gate::measure(0), Gate::measure(0)));
  const Qubit qs[] = {0, 1};
  EXPECT_FALSE(gates_commute(Gate::barrier(qs), Gate::cx(0, 2)));
  EXPECT_FALSE(gates_commute(Gate::z(0), Gate::measure(0)));
}

TEST(GatesCommute, PaperExampleSharedTargetCxs) {
  // The paper's §IV-B example: CX q1,q3 then CX q2,q3 share the target q3
  // and commute, so both are CF gates.
  EXPECT_TRUE(gates_commute(Gate::cx(1, 3), Gate::cx(2, 3)));
}

TEST(GatesCommute, CxStructure) {
  EXPECT_TRUE(gates_commute(Gate::cx(0, 1), Gate::cx(0, 2)));   // shared control
  EXPECT_TRUE(gates_commute(Gate::cx(0, 2), Gate::cx(1, 2)));   // shared target
  EXPECT_FALSE(gates_commute(Gate::cx(0, 1), Gate::cx(1, 2)));  // chain
  EXPECT_FALSE(gates_commute(Gate::cx(0, 1), Gate::cx(1, 0)));  // reversed
  EXPECT_TRUE(gates_commute(Gate::cx(0, 1), Gate::cx(0, 1)));   // identical
}

TEST(GatesCommute, DiagonalFamily) {
  EXPECT_TRUE(gates_commute(Gate::t(0), Gate::cz(0, 1)));
  EXPECT_TRUE(gates_commute(Gate::cu1(0, 1, 0.3), Gate::cu1(1, 2, 0.9)));
  EXPECT_TRUE(gates_commute(Gate::rzz(0, 1, 0.5), Gate::crz(1, 2, 0.7)));
  EXPECT_TRUE(gates_commute(Gate::rz(1, 0.2), Gate::rzz(0, 1, 0.4)));
}

TEST(GatesCommute, SingleQubitOnCxWires) {
  EXPECT_TRUE(gates_commute(Gate::t(0), Gate::cx(0, 1)));    // diag on control
  EXPECT_TRUE(gates_commute(Gate::x(1), Gate::cx(0, 1)));    // X on target
  EXPECT_TRUE(gates_commute(Gate::rx(1, 0.5), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::h(0), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::h(1), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::x(0), Gate::cx(0, 1)));
  EXPECT_FALSE(gates_commute(Gate::t(1), Gate::cx(0, 1)));
}

TEST(GatesCommute, SwapNeverCommutesWithOverlapExceptSpecialCases) {
  EXPECT_FALSE(gates_commute(Gate::swap(0, 1), Gate::h(0)));
  EXPECT_FALSE(gates_commute(Gate::swap(0, 1), Gate::cx(1, 2)));
  // SWAP commutes with a gate symmetric in both its qubits.
  EXPECT_TRUE(gates_commute(Gate::swap(0, 1), Gate::cz(0, 1)));
}

/// Property check: the symbolic rule table must agree with the exact
/// unitary ground truth for every pair of alphabet gates under every qubit
/// overlap pattern on three wires.
class CommutativityGroundTruth : public ::testing::Test {
 protected:
  static std::vector<Gate> gates_on(Qubit a, Qubit b) {
    return {
        Gate::x(a),          Gate::y(a),
        Gate::z(a),          Gate::h(a),
        Gate::s(a),          Gate::t(a),
        Gate::sx(a),         Gate::rx(a, 0.7),
        Gate::ry(a, 0.9),    Gate::rz(a, 1.1),
        Gate::u1(a, 0.4),    Gate::u3(a, 0.2, 0.3, 0.4),
        Gate::cx(a, b),      Gate::cx(b, a),
        Gate::cz(a, b),      Gate::cy(a, b),
        Gate::ch(a, b),      Gate::crz(a, b, 0.8),
        Gate::cu1(a, b, 0.5), Gate::rzz(a, b, 0.6),
        Gate::swap(a, b),
        // Identity- and diagonal-valued angles of non-diagonal families:
        // they commute where the generic family member does not.
        Gate::u3(a, 0.0, 0.3, 0.4), Gate::rx(a, 0.0),
        Gate::rx(a, 4 * std::numbers::pi), Gate::ry(a, 0.0),
        Gate::crz(a, b, 0.0),
    };
  }

  /// Overlap patterns over wires {0,1,2}: identical pair, shared first,
  /// shared second, crossed both ways.
  static std::vector<std::pair<std::pair<Qubit, Qubit>,
                               std::pair<Qubit, Qubit>>>
  patterns() {
    return {
        {{0, 1}, {0, 1}}, {{0, 1}, {0, 2}}, {{0, 1}, {2, 1}},
        {{0, 1}, {1, 2}}, {{0, 1}, {2, 0}},
    };
  }
};

TEST_F(CommutativityGroundTruth, RuleTableMatchesMatrices) {
  int checked = 0;
  for (const auto& [qa, qb] : patterns()) {
    for (const Gate& ga : gates_on(qa.first, qa.second)) {
      for (const Gate& gb : gates_on(qb.first, qb.second)) {
        const bool expected = ir::unitaries_commute(ga, gb);
        const bool actual = gates_commute(ga, gb);
        EXPECT_EQ(actual, expected)
            << ga.to_string() << " vs " << gb.to_string();
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 2000);
}

// CommuteMemo's premise: gates_commute depends on the wires only through
// which operand positions coincide. Every alphabet pair under every overlap
// pattern (plus 3-qubit and non-unitary gates) must keep its answer under
// random injective relabelings of the three wires, up to wire 65535.
TEST_F(CommutativityGroundTruth, AnswerDependsOnlyOnOverlapPattern) {
  const auto with_extras = [](Qubit a, Qubit b, Qubit c) {
    std::vector<Gate> gates = gates_on(a, b);
    const Qubit two[] = {a, b};
    const Qubit three[] = {a, b, c};
    gates.push_back(Gate::ccx(a, b, c));
    gates.push_back(Gate::ccx(c, a, b));
    gates.push_back(Gate::measure(a));
    gates.push_back(Gate::barrier(two));
    gates.push_back(Gate::barrier(three));
    return gates;
  };
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<Qubit> wire(0, 65535);
  int checked = 0;
  for (const auto& [qa, qb] : patterns()) {
    // The third wire of a 3-qubit gate is the one the pair leaves free.
    const std::vector<Gate> first =
        with_extras(qa.first, qa.second, 3 - qa.first - qa.second);
    const std::vector<Gate> second =
        with_extras(qb.first, qb.second, 3 - qb.first - qb.second);
    for (int trial = 0; trial < 4; ++trial) {
      std::array<Qubit, 3> relabel{};
      for (std::size_t k = 0; k < relabel.size(); ++k) {
        bool fresh = false;
        while (!fresh) {
          relabel[k] = trial == 0 && k == 0 ? Qubit{65535} : wire(rng);
          fresh = true;
          for (std::size_t m = 0; m < k; ++m)
            fresh = fresh && relabel[m] != relabel[k];
        }
      }
      const auto moved = [&relabel](const Gate& g) {
        return g.remapped([&relabel](Qubit q) {
          return relabel[static_cast<std::size_t>(q)];
        });
      };
      for (const Gate& ga : first) {
        for (const Gate& gb : second) {
          EXPECT_EQ(gates_commute(moved(ga), moved(gb)), gates_commute(ga, gb))
              << ga.to_string() << " vs " << gb.to_string();
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

TEST(CommuteMemo, MatchesGatesCommuteOnEveryPairOfRichCircuits) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    const Circuit c = codar::testing::rich_circuit(4, 160, seed);
    const std::vector<Gate> gates(c.gates().begin(), c.gates().end());
    CommuteMemo memo(gates);
    // Twice over: the first sweep fills the table, the second reads every
    // answer back from it.
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (std::size_t i = 0; i < gates.size(); ++i) {
        for (std::size_t j = 0; j < gates.size(); ++j) {
          ASSERT_EQ(memo.commute(i, j), gates_commute(gates[i], gates[j]))
              << gates[i].to_string() << " vs " << gates[j].to_string()
              << " (seed " << seed << ", sweep " << sweep << ")";
        }
      }
    }
  }
}

TEST(CommuteMemo, DistinguishesParametersAndOverlap) {
  // Each overlapping pair below reaches the matrices (the rules leave a
  // parametrized gate on a control or a non-X target open); pairs of the
  // same kinds differ only in parameters or in the overlap pattern.
  const std::vector<Gate> gates = {
      Gate::cx(0, 1),
      Gate::rx(0, 0.0),
      Gate::rx(0, 0.5),
      Gate::u3(0, 0.0, 0.3, 0.4),
      Gate::u3(1, 0.0, 0.3, 0.4),
      Gate::rx(0, -0.0),
  };
  CommuteMemo memo(gates);
  EXPECT_TRUE(memo.commute(0, 1));   // rx(0) on the control: identity
  EXPECT_FALSE(memo.commute(0, 2));  // rx(0.5) on the control
  EXPECT_TRUE(memo.commute(0, 3));   // diagonal u3 on the control
  EXPECT_FALSE(memo.commute(0, 4));  // the same u3 on the target
  EXPECT_TRUE(memo.commute(0, 5));   // rx(-0) on the control
  EXPECT_TRUE(memo.commute(1, 4));   // disjoint wires
}

TEST(CommutativeFront, PlainFrontWithoutCommutativity) {
  Circuit c(3);
  c.cx(0, 1);  // 0
  c.cx(0, 2);  // 1 shares control with 0
  c.h(2);      // 2 blocked by 1
  const auto front = commutative_front(c, 0, /*use_commutativity=*/false);
  EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(CommutativeFront, SharedControlExposesBothCxs) {
  Circuit c(3);
  c.cx(0, 1);
  c.cx(0, 2);
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(CommutativeFront, PaperSharedTargetExample) {
  Circuit c(4);
  c.cx(1, 3);
  c.cx(2, 3);
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(CommutativeFront, QftPhaseLadderIsMutuallyCommuting) {
  // All CU1 gates of a QFT layer commute; the front should contain every
  // CU1 until the next H.
  Circuit c(4);
  c.cu1(1, 0, 0.5);
  c.cu1(2, 0, 0.25);
  c.cu1(3, 0, 0.125);
  c.h(1);  // blocked: H does not commute with CU1 on the shared wire
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(CommutativeFront, NonCommutingChainOnlyHead) {
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.h(0);
  const auto front = commutative_front(c);
  EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(CommutativeFront, WindowTruncatesScan) {
  Circuit c(6);
  for (Qubit q = 0; q < 6; ++q) c.h(q);  // all independent
  EXPECT_EQ(commutative_front(c, 3).size(), 3u);
  EXPECT_EQ(commutative_front(c, 0).size(), 6u);
}

TEST(CommutativeFront, PendingSubsetRespected) {
  Circuit c(2);
  c.h(0);   // gate 0 (already executed, not pending)
  c.t(0);   // gate 1
  c.x(1);   // gate 2
  std::vector<ir::Gate> gates(c.gates().begin(), c.gates().end());
  const std::vector<int> pending = {1, 2};
  const auto front = commutative_front(gates, pending, 0, true);
  // Positions are within the pending vector.
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

}  // namespace
}  // namespace codar::core
