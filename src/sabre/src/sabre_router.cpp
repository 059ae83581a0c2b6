#include "codar/sabre/sabre_router.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>

#include "codar/arch/distance_oracle.hpp"
#include "codar/ir/decompose.hpp"

namespace codar::sabre {

namespace {

using core::RouterStats;
using core::RoutingResult;
using ir::Gate;
using ir::GateKind;
using ir::Qubit;

constexpr std::size_t kMaxIterations = 50'000'000;

bool is_two_qubit(const Gate& g) {
  return g.num_qubits() == 2 && g.kind() != GateKind::kBarrier;
}

/// Immediate-dependency DAG of a circuit in compressed (CSR) form, read in
/// either direction. Same edges as ir::DependencyDag. Successor lists are
/// ascending gate indices and predecessor lists descending, so walking the
/// predecessors of gate i visits exactly what the reversed circuit's own
/// DAG lists as successors of its gate n-1-i, in the same order.
class BidirectionalDag {
 public:
  explicit BidirectionalDag(const ir::Circuit& circuit)
      : pred_begin_(circuit.size() + 1, 0), succ_begin_(circuit.size() + 1, 0) {
    const std::size_t n = circuit.size();
    pred_.reserve(2 * n);
    // last_on_wire[q] = index of the most recent earlier gate touching q.
    std::vector<int> last_on_wire(
        static_cast<std::size_t>(circuit.num_qubits()), -1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto first = static_cast<std::ptrdiff_t>(pred_.size());
      for (const Qubit q : circuit.gate(i).qubits()) {
        const int prev = last_on_wire[static_cast<std::size_t>(q)];
        if (prev >= 0 &&
            std::find(pred_.begin() + first, pred_.end(), prev) == pred_.end()) {
          pred_.push_back(prev);
        }
        last_on_wire[static_cast<std::size_t>(q)] = static_cast<int>(i);
      }
      std::sort(pred_.begin() + first, pred_.end(), std::greater<>());
      pred_begin_[i + 1] = static_cast<int>(pred_.size());
    }
    // Successors by counting sort over the predecessor edges; filling in
    // ascending gate order keeps every successor list ascending.
    for (const int p : pred_) ++succ_begin_[static_cast<std::size_t>(p) + 1];
    std::partial_sum(succ_begin_.begin(), succ_begin_.end(),
                     succ_begin_.begin());
    succ_.resize(pred_.size());
    std::vector<int> cursor(succ_begin_.begin(), succ_begin_.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (const int p : predecessors(static_cast<int>(i))) {
        succ_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p)]++)] =
            static_cast<int>(i);
      }
    }
  }

  std::span<const int> predecessors(int i) const {
    return segment(pred_, pred_begin_, i);
  }
  std::span<const int> successors(int i) const {
    return segment(succ_, succ_begin_, i);
  }

 private:
  static std::span<const int> segment(const std::vector<int>& data,
                                      const std::vector<int>& begin, int i) {
    const auto k = static_cast<std::size_t>(i);
    return std::span<const int>(data).subspan(
        static_cast<std::size_t>(begin[k]),
        static_cast<std::size_t>(begin[k + 1] - begin[k]));
  }

  std::vector<int> pred_begin_;
  std::vector<int> pred_;
  std::vector<int> succ_begin_;
  std::vector<int> succ_;
};

/// Which way a traversal walks the circuit. kBackward routes the reversed
/// circuit without building it: gates are visited through the DAG read
/// backward, and every order-sensitive choice (initial front order, the
/// escape's "oldest" gate) uses the reversed circuit's indices.
enum class Direction { kForward, kBackward };

/// SABRE traversals of one circuit. Owns the per-step scratch, so the
/// 2*rounds passes of initial_mapping() reuse it; each call builds its own
/// SabreRun, so the router stays immutable and shareable across threads.
class SabreRun {
 public:
  SabreRun(const arch::Device& device, const SabreConfig& config,
           const ir::Circuit& input, const BidirectionalDag& dag)
      : device_(device),
        config_(config),
        dist_(device.graph.oracle()),
        dense_(dist_.dense_matrix()),
        dense_stride_(dist_.dense_stride()),
        input_(input),
        dag_(dag),
        pi_(input.num_qubits(), device.graph.num_qubits()),
        unresolved_(input.size()),
        decay_(static_cast<std::size_t>(device.graph.num_qubits()), 1.0),
        seen_(input.size(), 0),
        edge_seen_(device.graph.num_edges(), 0),
        front_partner_(static_cast<std::size_t>(device.graph.num_qubits()),
                       -1),
        ext_head_(static_cast<std::size_t>(device.graph.num_qubits()), -1) {}

  /// Routes forward from `initial`, emitting the routed circuit.
  RoutingResult route(const layout::Layout& initial) {
    ir::Circuit out(device_.graph.num_qubits(), input_.name() + "_sabre");
    traverse(initial, Direction::kForward, &out);
    RoutingResult result{std::move(out), initial, std::move(pi_), stats_};
    result.stats.barriers = input_.barrier_count();
    result.stats.gates_routed = input_.size() - result.stats.barriers;
    return result;
  }

  /// The final layout a routing pass in `direction` reaches from
  /// `initial`, without building the routed circuit.
  layout::Layout final_layout(layout::Layout initial, Direction direction) {
    traverse(std::move(initial), direction, nullptr);
    return std::move(pi_);
  }

 private:
  void traverse(layout::Layout initial, Direction direction,
                ir::Circuit* out) {
    backward_ = direction == Direction::kBackward;
    out_ = out;
    pi_ = std::move(initial);
    std::fill(decay_.begin(), decay_.end(), 1.0);
    decay_rounds_ = 0;
    since_progress_ = 0;
    stats_ = {};
    front_.clear();
    const int n = static_cast<int>(input_.size());
    for (int k = 0; k < n; ++k) {
      const int gi = backward_ ? n - 1 - k : k;
      const std::size_t in_degree = backward_
                                        ? dag_.successors(gi).size()
                                        : dag_.predecessors(gi).size();
      unresolved_[static_cast<std::size_t>(gi)] = static_cast<int>(in_degree);
      if (in_degree == 0) front_.push_back(gi);
    }

    std::size_t iterations = 0;
    while (!front_.empty()) {
      if (++iterations > kMaxIterations) {
        throw std::runtime_error(
            "SabreRouter: iteration cap exceeded (livelock?)");
      }
      if (execute_ready()) {
        since_progress_ = 0;
        continue;
      }
      if (since_progress_ >= config_.stagnation_threshold) {
        escape_swap();
      } else {
        best_swap();
      }
      ++since_progress_;
    }
  }

  /// Hop distance, straight from the matrix on the dense backend.
  int dist(Qubit a, Qubit b) const {
    if (dense_ == nullptr) return dist_.distance(a, b);
    return dense_[static_cast<std::size_t>(a) * dense_stride_ +
                  static_cast<std::size_t>(b)];
  }

  const Gate& gate(int gi) const {
    return input_.gate(static_cast<std::size_t>(gi));
  }

  /// Gates that wait on `gi` in the traversal direction.
  std::span<const int> successors(int gi) const {
    return backward_ ? dag_.predecessors(gi) : dag_.successors(gi);
  }

  bool executable(const Gate& g) const {
    if (!is_two_qubit(g)) return true;
    return device_.graph.connected(pi_.physical(g.qubit(0)),
                                   pi_.physical(g.qubit(1)));
  }

  /// Retires every executable front gate; returns true when any retired.
  bool execute_ready() {
    bool any = false;
    for (std::size_t i = 0; i < front_.size();) {
      const int gi = front_[i];
      const Gate& g = gate(gi);
      if (!executable(g)) {
        ++i;
        continue;
      }
      if (out_ != nullptr) {
        out_->add(g.remapped([&](Qubit lq) { return pi_.physical(lq); }));
      }
      front_[i] = front_.back();
      front_.pop_back();
      for (const int succ : successors(gi)) {
        if (--unresolved_[static_cast<std::size_t>(succ)] == 0) {
          front_.push_back(succ);
        }
      }
      any = true;
    }
    if (any) {
      std::fill(decay_.begin(), decay_.end(), 1.0);
      decay_rounds_ = 0;
    }
    return any;
  }

  /// Next generation of a stamp table; clears it on the (theoretical)
  /// 32-bit wrap so a stale mark can never alias the current generation.
  static std::uint32_t next_stamp(std::uint32_t& stamp,
                                  std::vector<std::uint32_t>& marks) {
    if (++stamp == 0) {
      std::fill(marks.begin(), marks.end(), 0);
      stamp = 1;
    }
    return stamp;
  }

  /// Candidate SWAPs into candidates_: coupling edges incident to the
  /// physical positions of the front gates' qubits, in first-occurrence
  /// order, deduplicated by a stamp on the graph's compact edge ids.
  void collect_candidates() {
    candidates_.clear();
    const std::uint32_t stamp = next_stamp(edge_stamp_, edge_seen_);
    for (const int gi : front_) {
      for (const Qubit lq : gate(gi).qubits()) {
        const Qubit p = pi_.physical(lq);
        const auto& nbs = device_.graph.neighbors(p);
        const std::span<const int> edge_ids =
            device_.graph.incident_edge_ids(p);
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          const auto edge_id = static_cast<std::size_t>(edge_ids[k]);
          if (edge_seen_[edge_id] == stamp) continue;
          edge_seen_[edge_id] = stamp;
          candidates_.emplace_back(std::min(p, nbs[k]), std::max(p, nbs[k]));
        }
      }
    }
  }

  /// Extended set E into ext_: the next 2-qubit gates reachable from the
  /// front layer through the DAG (breadth-first, in traversal order),
  /// capped at config.extended_set_size.
  void collect_extended_set() {
    ext_.clear();
    const auto cap = static_cast<std::size_t>(config_.extended_set_size);
    const std::uint32_t stamp = next_stamp(seen_stamp_, seen_);
    queue_.assign(front_.begin(), front_.end());
    for (const int gi : queue_) seen_[static_cast<std::size_t>(gi)] = stamp;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      if (ext_.size() >= cap) break;
      for (const int succ : successors(queue_[head])) {
        if (seen_[static_cast<std::size_t>(succ)] == stamp) continue;
        seen_[static_cast<std::size_t>(succ)] = stamp;
        queue_.push_back(succ);
        if (is_two_qubit(gate(succ))) {
          ext_.push_back(succ);
          if (ext_.size() >= cap) break;
        }
      }
    }
  }

  /// Picks the SWAP minimising decay * (mean_F dist + W * mean_E dist)
  /// (strict <, first candidate wins ties) and applies it.
  ///
  /// Both sums are integers: they are taken once per step, and each
  /// candidate adds only the change over gates with an endpoint on the
  /// swapped pair. Front gates share no qubit, so each physical qubit has
  /// at most one front partner (front_partner_); extended-set gates hang
  /// off per-physical-qubit intrusive lists (ext_head_/ext_next_). A gate
  /// spanning both swapped qubits keeps its distance (dist is symmetric)
  /// and is skipped. Every partial sum is a small integer, exact in a
  /// double, so each score is bit-equal to summing per-gate doubles
  /// (DESIGN.md §4.1).
  void best_swap() {
    collect_candidates();
    CODAR_ENSURES(!candidates_.empty());
    collect_extended_set();

    // Every remaining front gate is a blocked 2-qubit gate: execute_ready
    // retired everything else.
    std::int64_t front_sum = 0;
    for (const int gi : front_) {
      const Gate& g = gate(gi);
      CODAR_ENSURES(is_two_qubit(g));
      const Qubit a = pi_.physical(g.qubit(0));
      const Qubit b = pi_.physical(g.qubit(1));
      front_partner_[static_cast<std::size_t>(a)] = b;
      front_partner_[static_cast<std::size_t>(b)] = a;
      front_sum += dist(a, b);
    }
    std::int64_t ext_sum = 0;
    ext_partner_.resize(2 * ext_.size());
    ext_next_.resize(2 * ext_.size());
    for (std::size_t k = 0; k < ext_.size(); ++k) {
      const Gate& g = gate(ext_[k]);
      const Qubit ends[2] = {pi_.physical(g.qubit(0)),
                             pi_.physical(g.qubit(1))};
      for (std::size_t side = 0; side < 2; ++side) {
        const std::size_t node = 2 * k + side;
        int& head = ext_head_[static_cast<std::size_t>(ends[side])];
        ext_partner_[node] = ends[1 - side];
        ext_next_[node] = head;
        head = static_cast<int>(node);
      }
      ext_sum += dist(ends[0], ends[1]);
    }

    // Change in a gate's distance when its qubit at `from` moves to `to`
    // and its other qubit sits at `y`.
    const auto moved = [&](Qubit from, Qubit to, Qubit y) -> std::int64_t {
      return y == to ? 0 : dist(to, y) - dist(from, y);
    };
    const auto front_delta = [&](Qubit from, Qubit to) -> std::int64_t {
      const Qubit y = front_partner_[static_cast<std::size_t>(from)];
      return y < 0 ? 0 : moved(from, to, y);
    };
    const auto ext_delta = [&](Qubit from, Qubit to) {
      std::int64_t delta = 0;
      for (int node = ext_head_[static_cast<std::size_t>(from)]; node >= 0;
           node = ext_next_[static_cast<std::size_t>(node)]) {
        delta += moved(from, to, ext_partner_[static_cast<std::size_t>(node)]);
      }
      return delta;
    };

    const auto front_size = static_cast<double>(front_.size());
    const auto ext_size = static_cast<double>(ext_.size());
    double best_score = 0.0;
    std::pair<Qubit, Qubit> best{-1, -1};
    for (const auto& [sa, sb] : candidates_) {
      const double front_cost =
          static_cast<double>(front_sum + front_delta(sa, sb) +
                              front_delta(sb, sa)) /
          front_size;
      const double ext_cost =
          ext_.empty() ? 0.0
                       : static_cast<double>(ext_sum + ext_delta(sa, sb) +
                                             ext_delta(sb, sa)) /
                             ext_size;
      const double decay = std::max(decay_[static_cast<std::size_t>(sa)],
                                    decay_[static_cast<std::size_t>(sb)]);
      const double score =
          decay * (front_cost + config_.extended_weight * ext_cost);
      if (best.first < 0 || score < best_score) {
        best_score = score;
        best = {sa, sb};
      }
    }

    for (const int gi : front_) {
      for (const Qubit lq : gate(gi).qubits()) {
        front_partner_[static_cast<std::size_t>(pi_.physical(lq))] = -1;
      }
    }
    for (const int gi : ext_) {
      for (const Qubit lq : gate(gi).qubits()) {
        ext_head_[static_cast<std::size_t>(pi_.physical(lq))] = -1;
      }
    }
    apply_swap(best.first, best.second);
  }

  /// Anti-livelock: move the oldest front gate (in traversal order) one
  /// step along a shortest path (same guarantee as CODAR's escape).
  void escape_swap() {
    const int gi = backward_
                       ? *std::max_element(front_.begin(), front_.end())
                       : *std::min_element(front_.begin(), front_.end());
    const Gate& g = gate(gi);
    CODAR_ENSURES(g.num_qubits() == 2);
    const Qubit pa = pi_.physical(g.qubit(0));
    const Qubit pb = pi_.physical(g.qubit(1));
    Qubit step = -1;
    for (const Qubit nb : device_.graph.neighbors(pa)) {
      if (step < 0 || dist(nb, pb) < dist(step, pb)) {
        step = nb;
      }
    }
    CODAR_ENSURES(step >= 0);
    apply_swap(pa, step);
    ++stats_.escape_swaps;
  }

  void apply_swap(Qubit a, Qubit b) {
    if (out_ != nullptr) out_->swap(a, b);
    pi_.swap_physical(a, b);
    decay_[static_cast<std::size_t>(a)] += config_.decay_delta;
    decay_[static_cast<std::size_t>(b)] += config_.decay_delta;
    ++stats_.swaps_inserted;
    if (++decay_rounds_ >= config_.decay_reset_interval) {
      std::fill(decay_.begin(), decay_.end(), 1.0);
      decay_rounds_ = 0;
    }
  }

  const arch::Device& device_;
  const SabreConfig& config_;
  const arch::DistanceOracle& dist_;  ///< Cached distance backend.
  const int* dense_;  ///< Its V x V matrix, or null (see dist()).
  std::size_t dense_stride_;
  const ir::Circuit& input_;
  const BidirectionalDag& dag_;

  // Traversal state, reset by traverse().
  bool backward_ = false;
  ir::Circuit* out_ = nullptr;  ///< Routed output; null when layout-only.
  layout::Layout pi_;
  std::vector<int> unresolved_;
  std::vector<int> front_;
  std::vector<double> decay_;
  int decay_rounds_ = 0;
  int since_progress_ = 0;
  RouterStats stats_;

  // Per-step scratch, reused across steps and traversals.
  std::vector<std::uint32_t> seen_;  ///< Extended-set BFS marks.
  std::uint32_t seen_stamp_ = 0;
  std::vector<int> queue_;  ///< Extended-set BFS queue.
  std::vector<int> ext_;    ///< Extended set E.
  std::vector<std::uint32_t> edge_seen_;  ///< Candidate edge-id dedup marks.
  std::uint32_t edge_stamp_ = 0;
  std::vector<std::pair<Qubit, Qubit>> candidates_;
  std::vector<Qubit> front_partner_;  ///< Physical qubit -> front partner.
  std::vector<int> ext_head_;     ///< Physical qubit -> first E list node.
  std::vector<Qubit> ext_partner_;  ///< E list node -> other endpoint.
  std::vector<int> ext_next_;       ///< E list node -> next node, or -1.
};

}  // namespace

SabreRouter::SabreRouter(const arch::Device& device, SabreConfig config)
    : device_(device), config_(config) {
  CODAR_EXPECTS(device.graph.is_fully_connected());
  CODAR_EXPECTS(config.extended_set_size >= 0);
  CODAR_EXPECTS(config.stagnation_threshold >= 1);
}

RoutingResult SabreRouter::route(const ir::Circuit& circuit,
                                 const layout::Layout& initial) const {
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device_.graph.num_qubits());
  CODAR_EXPECTS(initial.num_logical() == circuit.num_qubits());
  CODAR_EXPECTS(initial.num_physical() == device_.graph.num_qubits());
  const BidirectionalDag dag(circuit);
  SabreRun run(device_, config_, circuit, dag);
  return run.route(initial);
}

RoutingResult SabreRouter::route(const ir::Circuit& circuit) const {
  return route(circuit, layout::Layout(circuit.num_qubits(),
                                       device_.graph.num_qubits()));
}

layout::Layout SabreRouter::initial_mapping(const ir::Circuit& circuit,
                                            int rounds,
                                            std::uint64_t seed) const {
  CODAR_EXPECTS(rounds >= 1);
  CODAR_EXPECTS(ir::is_two_qubit_lowered(circuit));
  CODAR_EXPECTS(circuit.num_qubits() <= device_.graph.num_qubits());
  layout::Layout layout = layout::random_layout(
      circuit.num_qubits(), device_.graph.num_qubits(), seed);
  // Layout-only passes over one DAG: the backward pass reads it in reverse
  // instead of routing a reversed copy of the circuit.
  const BidirectionalDag dag(circuit);
  SabreRun run(device_, config_, circuit, dag);
  for (int r = 0; r < rounds; ++r) {
    layout = run.final_layout(std::move(layout), Direction::kForward);
    layout = run.final_layout(std::move(layout), Direction::kBackward);
  }
  return layout;
}

}  // namespace codar::sabre
