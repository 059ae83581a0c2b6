#pragma once

// The device-independent description of one compilation: which router
// and initial-mapping strategy to run (by name — see kRouters/kMappings
// in pipeline.hpp) plus every knob that can change a routed result. This is
// the library-level core of the CLI's Options struct; `codar` and
// `codar serve` both overlay their I/O and presentation fields on top of
// it (cli::Options derives from RoutingSpec).

#include <cstdint>
#include <stdexcept>
#include <string>

#include "codar/core/codar_router.hpp"

namespace codar::pipeline {

/// Raised on malformed spec values: unknown router/mapping names and
/// out-of-range or unparseable knob values. The CLI layer treats it as a
/// usage error (`what()` is the message to print); `codar serve` rewraps
/// it into a ProtocolError for per-request failures.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything a Pipeline needs to know besides the device and the circuit.
/// Router and mapping are table names, validated when the Pipeline is
/// built (or eagerly by the flag/request parsers).
struct RoutingSpec {
  std::string router = "codar";    ///< A kRouters name.
  std::string mapping = "sabre";   ///< A kMappings name.
  core::CodarConfig codar;         ///< CODAR feature toggles / ablations.
  std::uint64_t seed = 17;         ///< Initial-mapping RNG seed.
  int mapping_rounds = 3;          ///< SABRE reverse-traversal rounds.
  bool verify = true;              ///< Run verify_routing after routing.
  bool peephole = false;           ///< Pre-routing peephole cleanup stage.

  /// Objective weights of the codar-fid pass (--alpha/--beta/--gamma, or
  /// the same-named serve options): distance, log-fidelity, decoherence.
  /// Ignored by every other router; with beta = gamma = 0 codar-fid is
  /// byte-identical to codar. Cache-key relevant (the serve options
  /// fingerprint folds all three).
  struct FidWeights {
    double alpha = 1.0;  ///< Weight of the H_basic distance term.
    double beta = 5.0;   ///< Weight of ln F_swap per candidate edge.
    double gamma = 1.0;  ///< Weight of the SWAP-duration decoherence term.
  };
  FidWeights fid;
};

}  // namespace codar::pipeline
