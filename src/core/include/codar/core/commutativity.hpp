#pragma once

// Commutativity detection (paper §IV-B). Three ingredients:
//
//  * `gates_commute` — a fast symbolic rule table (disjoint supports,
//    diagonal families, CX control/target structure, ...) with an exact
//    unitary-matrix fallback for pairs the rules don't cover. The rules are
//    cross-validated against the matrix ground truth by property tests.
//
//  * `commutative_front` — the CF set of a pending gate sequence: gate g_k
//    is a commutative-forward gate iff it commutes with every earlier
//    pending gate (Definition 1). Only pairs sharing a qubit need checking;
//    a scan window caps the cost on very long circuits.
//
//  * `CommuteMemo` — `gates_commute` over one circuit's gates with the
//    matrix fallback memoized. The fallback's answer depends only on the
//    two kinds, their exact parameters and which operand positions
//    coincide: it lays its joint space out as a's operands, then b's new
//    ones. A circuit repeats few such shapes, so the incremental front and
//    the verifier look them up instead of multiplying dense matrices
//    again. `gates_commute` and `commutative_front` stay unmemoized: they
//    are the reference the memo is tested against.

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "codar/ir/circuit.hpp"

namespace codar::core {

/// True when the two gates commute (AB = BA). Measure and Barrier commute
/// only with gates on disjoint qubits (conservative: a barrier is an
/// explicit ordering fence; a measurement collapses its qubit).
bool gates_commute(const ir::Gate& a, const ir::Gate& b);

/// Computes the CF subset of `sequence[pending[0..]]`, scanning at most
/// `window` leading pending gates (gates beyond the window are
/// conservatively excluded). Returns positions *within the pending vector*
/// in ascending order. `window <= 0` means unbounded.
///
/// With `use_commutativity = false` this degenerates to the plain DAG front
/// layer (first pending gate on each wire), the paper's ablation baseline.
std::vector<std::size_t> commutative_front(
    const std::vector<ir::Gate>& sequence, const std::vector<int>& pending,
    int window = 256, bool use_commutativity = true);

/// Convenience overload over a whole circuit (all gates pending).
std::vector<std::size_t> commutative_front(const ir::Circuit& circuit,
                                           int window = 0,
                                           bool use_commutativity = true);

/// `gates_commute` over pairs of one gate span. Pairs the rule table
/// leaves open are memoized per shape: (class of gate i, class of gate j,
/// overlap pattern), where a class is a kind plus the exact bit patterns of
/// its parameters and the pattern is the two arities plus, per operand of
/// j, its operand position in i or "none". Scoped to one routing or
/// verification call; the table only grows.
class CommuteMemo {
 public:
  /// Classes are interned on first use. The span must outlive this object.
  explicit CommuteMemo(std::span<const ir::Gate> gates);

  /// Same answer as gates_commute(gates[i], gates[j]).
  bool commute(std::size_t i, std::size_t j);

 private:
  std::uint32_t class_of(std::size_t i);

  std::span<const ir::Gate> gates_;
  std::vector<std::uint32_t> class_of_;  ///< gate -> class id, lazily.
  std::map<std::array<std::uint64_t, 1 + ir::Gate::kMaxParams>, std::uint32_t>
      interned_;  ///< (kind, parameter bits) -> class id.
  /// Packed (class_i, class_j, pattern) key -> answer.
  std::unordered_map<std::uint64_t, bool> answers_;
};

}  // namespace codar::core
