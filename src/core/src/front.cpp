#include "codar/core/front.hpp"

#include <algorithm>

namespace codar::core {

using ir::Gate;
using ir::Qubit;

CommutativeFront::CommutativeFront(std::span<const Gate> gates, int window,
                                   bool use_commutativity)
    : gates_(gates),
      window_cap_(window <= 0 ? gates.size()
                              : static_cast<std::size_t>(window)),
      use_commutativity_(use_commutativity),
      memo_(gates),
      alive_(gates.size(), 1),
      in_window_(gates.size(), 0),
      block_count_(gates.size(), 0),
      live_count_(gates.size()),
      next_alive_(gates.size()),
      prev_alive_(gates.size()) {
  const int n = static_cast<int>(gates.size());

  // Global alive list: 0 <-> 1 <-> ... <-> n-1.
  for (int i = 0; i < n; ++i) {
    prev_alive_[static_cast<std::size_t>(i)] = i - 1;
    next_alive_[static_cast<std::size_t>(i)] = i + 1 < n ? i + 1 : -1;
  }
  first_alive_ = n > 0 ? 0 : -1;

  // Wire lists: one slot per gate operand, appended in program order.
  slot_offset_.resize(gates.size() + 1);
  int num_wires = 0;
  int total_slots = 0;
  for (int i = 0; i < n; ++i) {
    slot_offset_[static_cast<std::size_t>(i)] = total_slots;
    const Gate& g = gates_[static_cast<std::size_t>(i)];
    total_slots += g.num_qubits();
    for (const Qubit q : g.qubits()) num_wires = std::max(num_wires, q + 1);
  }
  slot_offset_[gates.size()] = total_slots;
  wire_links_.resize(static_cast<std::size_t>(total_slots));
  wire_tail_.assign(static_cast<std::size_t>(num_wires), -1);
  for (int i = 0; i < n; ++i) {
    const Gate& g = gates_[static_cast<std::size_t>(i)];
    for (int op = 0; op < g.num_qubits(); ++op) {
      const auto wire = static_cast<std::size_t>(g.qubit(op));
      WireLink& link = wire_links_[slot(i, op)];
      link.prev = wire_tail_[wire];
      if (link.prev >= 0) {
        // Find the predecessor's slot on this wire to hook its next.
        const Gate& h = gates_[static_cast<std::size_t>(link.prev)];
        for (int hop = 0; hop < h.num_qubits(); ++hop) {
          if (h.qubit(hop) == g.qubit(op)) {
            wire_links_[slot(link.prev, hop)].next = i;
            break;
          }
        }
      }
      wire_tail_[wire] = i;
    }
  }

  front_.reserve(std::min(window_cap_, gates.size()));
  window_next_ = first_alive_;
  while (window_size_ < window_cap_ && window_next_ >= 0) admit_next();
}

bool CommutativeFront::blocks(int h, int g) {
  return !use_commutativity_ || !memo_.commute(static_cast<std::size_t>(h),
                                               static_cast<std::size_t>(g));
}

void CommutativeFront::admit_next() {
  const int gi = window_next_;
  const Gate& g = gates_[static_cast<std::size_t>(gi)];
  // Every earlier alive gate is inside the window (the window is an
  // alive-prefix), so the wire predecessor chains are exactly the gates the
  // rescan definition checks.
  int blockers = 0;
  for (int op = 0; op < g.num_qubits(); ++op) {
    for (int h = wire_links_[slot(gi, op)].prev; h >= 0;
         h = wire_links_[slot(h, wire_slot_of(h, g.qubit(op)))].prev) {
      if (blocks(h, gi)) ++blockers;
    }
  }
  block_count_[static_cast<std::size_t>(gi)] = blockers;
  in_window_[static_cast<std::size_t>(gi)] = 1;
  ++window_size_;
  window_next_ = next_alive_[static_cast<std::size_t>(gi)];
  if (blockers == 0) front_insert(gi);
}

void CommutativeFront::retire(int gate_index) {
  CODAR_EXPECTS(alive(gate_index));
  CODAR_EXPECTS(in_window_[static_cast<std::size_t>(gate_index)] != 0);
  const Gate& g = gates_[static_cast<std::size_t>(gate_index)];
  front_erase(gate_index);

  // Re-evaluate only the pairs this gate participated in: later windowed
  // gates on its wires (a program-order prefix of each wire list, so the
  // walk stops at the first out-of-window gate).
  for (int op = 0; op < g.num_qubits(); ++op) {
    const Qubit wire = g.qubit(op);
    for (int x = wire_links_[slot(gate_index, op)].next;
         x >= 0 && in_window_[static_cast<std::size_t>(x)] != 0;
         x = wire_links_[slot(x, wire_slot_of(x, wire))].next) {
      if (blocks(gate_index, x)) {
        if (--block_count_[static_cast<std::size_t>(x)] == 0) front_insert(x);
      }
    }
  }

  // Unlink from the wire lists ...
  for (int op = 0; op < g.num_qubits(); ++op) {
    const WireLink link = wire_links_[slot(gate_index, op)];
    const Qubit wire = g.qubit(op);
    if (link.prev >= 0) {
      wire_links_[slot(link.prev, wire_slot_of(link.prev, wire))].next =
          link.next;
    }
    if (link.next >= 0) {
      wire_links_[slot(link.next, wire_slot_of(link.next, wire))].prev =
          link.prev;
    } else {
      wire_tail_[static_cast<std::size_t>(wire)] = link.prev;
    }
  }

  // ... and from the global alive list.
  const int prev = prev_alive_[static_cast<std::size_t>(gate_index)];
  const int next = next_alive_[static_cast<std::size_t>(gate_index)];
  if (prev >= 0) {
    next_alive_[static_cast<std::size_t>(prev)] = next;
  } else {
    first_alive_ = next;
  }
  if (next >= 0) prev_alive_[static_cast<std::size_t>(next)] = prev;

  alive_[static_cast<std::size_t>(gate_index)] = 0;
  in_window_[static_cast<std::size_t>(gate_index)] = 0;
  --live_count_;
  --window_size_;

  // Slide the window boundary: admit gates until the window is full again.
  while (window_size_ < window_cap_ && window_next_ >= 0) admit_next();
}

int CommutativeFront::wire_slot_of(int gate_index, Qubit wire) const {
  const Gate& g = gates_[static_cast<std::size_t>(gate_index)];
  for (int op = 0; op < g.num_qubits(); ++op) {
    if (g.qubit(op) == wire) return op;
  }
  CODAR_ENSURES(false);  // gate_index is linked on `wire` by construction
  return -1;
}

void CommutativeFront::front_insert(int gate_index) {
  front_.insert(std::lower_bound(front_.begin(), front_.end(), gate_index),
                gate_index);
}

void CommutativeFront::front_erase(int gate_index) {
  const auto it =
      std::lower_bound(front_.begin(), front_.end(), gate_index);
  CODAR_EXPECTS(it != front_.end() && *it == gate_index);
  front_.erase(it);
}

}  // namespace codar::core
