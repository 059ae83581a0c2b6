#include "codar/core/verify.hpp"

#include <sstream>

#include "codar/core/commutativity.hpp"

namespace codar::core {

namespace {

using ir::Gate;
using ir::GateKind;
using ir::Qubit;

std::string describe(const Gate& g) { return g.to_string(); }

/// Incremental matcher: maintains the pending original sequence with
/// per-wire occurrence lists and lazy deletion, so that matching each
/// routed gate against the commutative front costs roughly the number of
/// still-alive gates ahead of the match point (near-constant for router
/// outputs, which retire gates close to program order).
class FrontMatcher {
 public:
  explicit FrontMatcher(const ir::Circuit& original)
      : gates_(original.gates().begin(), original.gates().end()),
        memo_(gates_) {
    alive_.assign(gates_.size(), true);
    wire_lists_.resize(static_cast<std::size_t>(original.num_qubits()));
    wire_cursor_.assign(wire_lists_.size(), 0);
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      for (const Qubit q : gates_[i].qubits()) {
        wire_lists_[static_cast<std::size_t>(q)].push_back(i);
      }
    }
  }

  std::size_t remaining() const { return remaining_; }

  const Gate& gate(std::size_t i) const { return gates_[i]; }
  std::size_t first_alive() {
    while (head_ < gates_.size() && !alive_[head_]) ++head_;
    return head_;
  }

  /// Finds the first alive gate equal to `target` that commutes with every
  /// earlier alive gate sharing a wire (i.e. is in the commutative front),
  /// removes it, and returns true.
  bool match_and_remove(const Gate& target) {
    for (std::size_t i = first_alive(); i < gates_.size(); ++i) {
      if (!alive_[i] || !(gates_[i] == target)) continue;
      if (is_front(i)) {
        remove(i);
        return true;
      }
    }
    return false;
  }

 private:
  bool is_front(std::size_t i) {
    for (const Qubit q : gates_[i].qubits()) {
      auto& list = wire_lists_[static_cast<std::size_t>(q)];
      std::size_t& cursor = wire_cursor_[static_cast<std::size_t>(q)];
      while (cursor < list.size() && !alive_[list[cursor]]) ++cursor;
      for (std::size_t k = cursor; k < list.size() && list[k] < i; ++k) {
        if (!alive_[list[k]]) continue;
        if (!memo_.commute(list[k], i)) return false;
      }
    }
    return true;
  }

  void remove(std::size_t i) {
    alive_[i] = false;
    --remaining_;
  }

  std::vector<Gate> gates_;
  CommuteMemo memo_;  ///< Over gates_, which never changes after construction.
  std::vector<bool> alive_;
  std::vector<std::vector<std::size_t>> wire_lists_;
  std::vector<std::size_t> wire_cursor_;
  std::size_t head_ = 0;
  std::size_t remaining_ = 0;

 public:
  void init_remaining() { remaining_ = gates_.size(); }
};

}  // namespace

VerifyOutcome verify_routing(const ir::Circuit& original,
                             const RoutingResult& result,
                             const arch::CouplingGraph& graph) {
  // 1. Connectivity compliance.
  for (const Gate& g : result.circuit.gates()) {
    if (g.num_qubits() == 2 && g.kind() != GateKind::kBarrier) {
      if (!graph.connected(g.qubit(0), g.qubit(1))) {
        return VerifyOutcome::fail("gate violates coupling constraint: " +
                                   describe(g));
      }
    }
  }

  // 2 + 3. Replay SWAPs, map every non-SWAP gate back to logical operands,
  // and match it against the commutative front of the remaining original
  // sequence.
  layout::Layout layout = result.initial;
  FrontMatcher matcher(original);
  matcher.init_remaining();

  for (const Gate& g : result.circuit.gates()) {
    if (g.kind() == GateKind::kSwap) {
      layout.swap_physical(g.qubit(0), g.qubit(1));
      continue;
    }
    bool unmapped = false;
    const Gate logical_gate = g.remapped([&](Qubit phys) {
      const Qubit lq = layout.logical(phys);
      if (lq < 0) unmapped = true;
      return lq < 0 ? Qubit{0} : lq;
    });
    if (unmapped) {
      return VerifyOutcome::fail(
          "routed gate touches a physical qubit holding no logical qubit: " +
          describe(g));
    }
    if (!matcher.match_and_remove(logical_gate)) {
      return VerifyOutcome::fail(
          "routed gate is not a commutative-front gate of the remaining "
          "original sequence: " +
          describe(logical_gate));
    }
  }

  if (matcher.remaining() != 0) {
    std::ostringstream oss;
    oss << "routed circuit dropped " << matcher.remaining()
        << " original gate(s)";
    return VerifyOutcome::fail(oss.str());
  }

  if (layout != result.final) {
    return VerifyOutcome::fail(
        "final layout does not match the SWAP replay of the routed circuit");
  }
  return VerifyOutcome::ok();
}

}  // namespace codar::core
