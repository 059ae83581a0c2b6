#pragma once

// A seeded random circuit over the whole gate alphabet, for tests of the
// commutation machinery. workloads::random_circuit emits only
// h/x/t/tdg/s/rz/cx with fresh angles, so every parametrized gate there is
// unique; this generator instead draws angles from a small shared pool
// (0, 2π and 4π, at which rotations are identities up to phase; π; the
// sign-distinct -0.0; generic values), so the same (kind, parameters)
// pair recurs on different wires, and it mixes in barriers and
// measurements.

#include <array>
#include <cstdint>
#include <numbers>
#include <random>
#include <string>

#include "codar/ir/circuit.hpp"

namespace codar::testing {

/// `num_gates` gates on `num_qubits` (>= 3) wires. With `allow_ccx` false
/// the circuit is two-qubit lowered (routable without decomposition).
inline ir::Circuit rich_circuit(int num_qubits, int num_gates,
                                std::uint64_t seed, bool allow_ccx = true) {
  using ir::Qubit;
  CODAR_EXPECTS(num_qubits >= 3);
  constexpr double pi = std::numbers::pi;
  static constexpr std::array<double, 8> kAngles = {
      0.0, -0.0, pi, 2 * pi, 4 * pi, 0.5, 1.1, pi / 4};
  ir::Circuit c(num_qubits, "rich_" + std::to_string(num_qubits) + "_" +
                                std::to_string(num_gates) + "_s" +
                                std::to_string(seed));
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto angle = [&] { return kAngles[pick(kAngles.size())]; };
  // Three distinct wires, uniformly.
  const auto wires = [&] {
    std::array<Qubit, 3> w{};
    for (std::size_t k = 0; k < w.size(); ++k) {
      bool fresh = false;
      while (!fresh) {
        w[k] = static_cast<Qubit>(pick(static_cast<std::size_t>(num_qubits)));
        fresh = true;
        for (std::size_t m = 0; m < k; ++m) fresh = fresh && w[m] != w[k];
      }
    }
    return w;
  };
  const int kinds = allow_ccx ? 28 : 27;
  for (int n = 0; n < num_gates; ++n) {
    const auto [a, b, t] = wires();
    switch (static_cast<int>(pick(static_cast<std::size_t>(kinds)))) {
      case 0: c.i(a); break;
      case 1: c.x(a); break;
      case 2: c.y(a); break;
      case 3: c.z(a); break;
      case 4: c.h(a); break;
      case 5: c.s(a); break;
      case 6: c.sdg(a); break;
      case 7: c.t(a); break;
      case 8: c.tdg(a); break;
      case 9: c.sx(a); break;
      case 10: c.rx(a, angle()); break;
      case 11: c.ry(a, angle()); break;
      case 12: c.rz(a, angle()); break;
      case 13: c.u1(a, angle()); break;
      case 14: c.u2(a, angle(), angle()); break;
      case 15: c.u3(a, angle(), angle(), angle()); break;
      case 16: c.cx(a, b); break;
      case 17: c.cz(a, b); break;
      case 18: c.cy(a, b); break;
      case 19: c.ch(a, b); break;
      case 20: c.crz(a, b, angle()); break;
      case 21: c.cu1(a, b, angle()); break;
      case 22: c.rzz(a, b, angle()); break;
      case 23: c.swap(a, b); break;
      case 24: c.measure(a); break;
      case 25: {
        const Qubit fence[] = {a, b};
        c.barrier(fence);
        break;
      }
      case 26: {
        const Qubit fence[] = {a, b, t};
        c.barrier(fence);
        break;
      }
      default: c.ccx(a, b, t); break;
    }
  }
  return c;
}

}  // namespace codar::testing
