#pragma once

// Incrementally-maintained commutative front (paper §IV-B, Definition 1).
//
// The CF set over a pending gate sequence is: gate g is front iff it lies
// within the first `window` alive gates AND every earlier alive gate h
// sharing a wire with g commutes with it (with commutativity awareness off,
// iff no earlier alive gate shares a wire — the plain DAG front). The
// original router recomputed this from scratch with a full window rescan
// after every retirement, making the hot loop O(window · wire-depth)
// commute checks *per iteration*. This structure maintains the identical
// set incrementally: each (blocker, blockee) pair is examined O(1) times
// per retirement event instead of once per rescan.
//
// Representation:
//  * a doubly-linked list over alive gates in program order (the window is
//    always the first min(window, live) alive gates, so the boundary is a
//    single cursor into this list);
//  * one doubly-linked list per wire over the alive gates acting on it
//    (gates link in per-operand slots, so unlinking a retired gate is
//    O(num_operands));
//  * per windowed gate, block_count = number of earlier alive gates that
//    block it; the gate is front iff block_count == 0.
//
// retire(g) unlinks g, walks forward along each of g's wire lists over the
// still-windowed gates re-evaluating only the pairs g participated in, and
// admits gates past the old window boundary (computing their block_count
// against earlier alive wire predecessors — all of which are in the window,
// because the window is an alive-prefix). Equivalence with the rescan
// definition is locked in by randomized differential tests against
// commutative_front() and the preserved oracle router.
//
// Pair checks go through a CommuteMemo over the same gates: a pair shape
// (kinds, exact parameters, operand overlap) that the rule table leaves
// open costs one dense-matrix evaluation per circuit, then table lookups.

#include <span>
#include <vector>

#include "codar/core/commutativity.hpp"
#include "codar/ir/gate.hpp"

namespace codar::core {

/// The CF set of a fixed gate sequence under incremental retirement.
class CommutativeFront {
 public:
  /// Builds the front over `gates` (all initially alive, program order).
  /// The span must outlive this object. `window <= 0` means unbounded;
  /// `use_commutativity = false` degenerates to the plain DAG front layer.
  CommutativeFront(std::span<const ir::Gate> gates, int window,
                   bool use_commutativity);

  /// Current front: alive gate indices in ascending program order. The span
  /// is invalidated by retire().
  std::span<const int> front() const { return front_; }

  /// Number of alive (un-retired) gates.
  std::size_t live_count() const { return live_count_; }

  bool alive(int gate_index) const {
    return alive_[static_cast<std::size_t>(gate_index)] != 0;
  }

  /// Retires a gate currently in the front, updating the front in
  /// O(deg + admissions) pair re-evaluations.
  void retire(int gate_index);

 private:
  /// Per-operand wire-list links of one gate slot.
  struct WireLink {
    int prev = -1;  ///< Previous alive gate on this wire (gate index).
    int next = -1;  ///< Next alive gate on this wire (gate index).
  };

  std::size_t slot(int gate_index, int operand) const {
    return static_cast<std::size_t>(slot_offset_[
               static_cast<std::size_t>(gate_index)] + operand);
  }

  /// True when earlier gate h blocks later gate g (they share >= 1 wire by
  /// construction of the wire lists).
  bool blocks(int h, int g);

  /// The operand position of `wire` within the gate (the gate acts on it).
  int wire_slot_of(int gate_index, ir::Qubit wire) const;

  /// Admits the gate at the window cursor: computes its block_count against
  /// earlier alive gates (walking its wire predecessor chains) and advances
  /// the cursor.
  void admit_next();

  void front_insert(int gate_index);
  void front_erase(int gate_index);

  std::span<const ir::Gate> gates_;
  std::size_t window_cap_;  ///< Max gates in the window (SIZE_MAX = unbounded).
  bool use_commutativity_;
  CommuteMemo memo_;

  std::vector<char> alive_;
  std::vector<char> in_window_;
  std::vector<int> block_count_;
  std::size_t live_count_ = 0;
  std::size_t window_size_ = 0;

  // Global alive list (program order).
  std::vector<int> next_alive_;
  std::vector<int> prev_alive_;
  int first_alive_ = -1;
  int window_next_ = -1;  ///< First alive gate beyond the window; -1 = none.

  // Per-wire alive lists, flattened per gate operand slot.
  std::vector<int> slot_offset_;       ///< gate -> first slot index.
  std::vector<WireLink> wire_links_;   ///< one entry per (gate, operand).
  std::vector<int> wire_tail_;         ///< wire -> last alive gate on it.

  std::vector<int> front_;  ///< Sorted gate indices with block_count == 0.
};

}  // namespace codar::core
