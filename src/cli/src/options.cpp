#include "codar/cli/options.hpp"

#include <charconv>
#include <climits>
#include <cmath>

#include "codar/pipeline/pipeline.hpp"

namespace codar::cli {

namespace {

long long integer_value(const std::string& flag, const std::string& value) {
  long long result = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), result);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw UsageError(flag + " expects an integer, got '" + value + "'");
  }
  return result;
}

/// An int flag in [lo, INT_MAX], checked before the narrowing cast so an
/// out-of-range value is an error instead of a silent wrap.
int int_value(const std::string& flag, const std::string& value,
              long long lo) {
  const long long n = integer_value(flag, value);
  if (n < lo) throw UsageError(flag + " must be >= " + std::to_string(lo));
  if (n > INT_MAX) {
    throw UsageError(flag + " must be <= " + std::to_string(INT_MAX));
  }
  return static_cast<int>(n);
}

/// A weight flag: a finite number ("inf"/"nan" are rejected, since the
/// bit pattern feeds the options fingerprint), >= 0 when `nonnegative`.
double weight_value(const std::string& flag, const std::string& value,
                    bool nonnegative) {
  double result = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), result);
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      !std::isfinite(result)) {
    throw UsageError(flag + " expects a finite number, got '" + value + "'");
  }
  if (nonnegative && result < 0.0) throw UsageError(flag + " must be >= 0");
  return result;
}

}  // namespace

bool parse_routing_flag(Options& opts, const std::string& arg,
                        const std::function<std::string()>& value) {
  if (arg == "--device" || arg == "-d") {
    opts.device = value();
  } else if (arg == "--router" || arg == "-r") {
    // Validate eagerly so a typo fails at parse time with the known
    // names, not at route time.
    opts.router = pipeline::router_named(value()).name;
  } else if (arg == "--initial") {
    opts.mapping = pipeline::mapping_named(value()).name;
  } else if (arg == "--threads" || arg == "-j") {
    opts.threads = int_value(arg, value(), 0);
  } else if (arg == "--no-verify") {
    opts.verify = false;
  } else if (arg == "--timing") {
    opts.timing = true;
  } else if (arg == "--peephole") {
    opts.peephole = true;
  } else if (arg == "--no-context") {
    opts.codar.context_aware = false;
  } else if (arg == "--no-duration") {
    opts.codar.duration_aware = false;
  } else if (arg == "--no-commutativity") {
    opts.codar.commutativity_aware = false;
  } else if (arg == "--no-fine-priority") {
    opts.codar.fine_priority = false;
  } else if (arg == "--window") {
    opts.codar.front_window = int_value(arg, value(), INT_MIN);
  } else if (arg == "--stagnation") {
    opts.codar.stagnation_threshold = int_value(arg, value(), 1);
  } else if (arg == "--alpha") {
    opts.fid.alpha = weight_value(arg, value(), false);
  } else if (arg == "--beta") {
    opts.fid.beta = weight_value(arg, value(), true);
  } else if (arg == "--gamma") {
    opts.fid.gamma = weight_value(arg, value(), true);
  } else if (arg == "--seed") {
    opts.seed = static_cast<std::uint64_t>(integer_value(arg, value()));
  } else if (arg == "--mapping-rounds") {
    opts.mapping_rounds = int_value(arg, value(), 1);
  } else {
    return false;
  }
  return true;
}

Options parse_args(const std::vector<std::string>& args) {
  Options opts;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw UsageError(arg + " expects a value");
      }
      return args[++i];
    };
    if (parse_routing_flag(opts, arg, value)) {
      continue;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--list-devices") {
      opts.list_devices = true;
    } else if (arg == "--describe-device") {
      opts.describe_device = value();
    } else if (arg == "--list-routers") {
      opts.list_routers = true;
    } else if (arg == "--list-mappings") {
      opts.list_mappings = true;
    } else if (arg == "--batch") {
      opts.batch_dir = value();
    } else if (arg == "--suite") {
      opts.suite = true;
    } else if (arg == "--output" || arg == "-o") {
      opts.output_path = value();
    } else if (arg == "--stats") {
      opts.stats_path = value();
    } else if (!arg.empty() && arg[0] == '-') {
      throw UsageError("unknown flag '" + arg + "'");
    } else {
      opts.inputs.push_back(arg);
    }
  }
  if (opts.help || opts.list_devices || opts.list_routers ||
      opts.list_mappings || !opts.describe_device.empty()) {
    return opts;
  }
  const int modes = static_cast<int>(!opts.inputs.empty()) +
                    static_cast<int>(!opts.batch_dir.empty()) +
                    static_cast<int>(opts.suite);
  if (modes == 0) {
    throw UsageError("nothing to route: give .qasm files, --batch DIR, "
                     "or --suite");
  }
  if (modes > 1) {
    throw UsageError("pick one mode: positional files, --batch, or --suite");
  }
  if (!opts.output_path.empty() && opts.inputs.size() != 1) {
    throw UsageError("-o/--output requires exactly one input file");
  }
  return opts;
}

std::string usage() {
  return R"(codar — contextual duration-aware qubit mapping (DAC 2020)

usage:
  codar [options] FILE.qasm...       route the given OpenQASM 2.0 files
  codar [options] --batch DIR        route every *.qasm under DIR (parallel)
  codar [options] --suite            route the built-in 71-benchmark suite
  codar serve [options]              NDJSON routing service with a route
                                     cache (see codar serve --help)
  codar --list-devices               print every device spec
  codar --describe-device SPEC       print one device's shape + fingerprint
  codar --list-routers               print every routing pass
  codar --list-mappings              print every initial-mapping strategy

modes and I/O:
  -o, --output FILE     routed QASM destination (single input only; default
                        stdout)
      --stats FILE      JSON statistics destination (default: stderr for a
                        single input, stdout for batch/suite)
      --threads, -j N   batch worker threads (0 = hardware concurrency)

routing:
  -d, --device SPEC     target device (default tokyo); see --list-devices.
                        file:PATH.json loads a JSON device description
                        (graph + durations/fidelities + calibration; see
                        README "Device files")
  -r, --router NAME     routing pass (default codar); see --list-routers
      --initial NAME    initial mapping (default sabre); see --list-mappings
      --seed N          initial-mapping RNG seed (default 17)
      --mapping-rounds N  SABRE reverse-traversal rounds (default 3; >= 1)
      --peephole        run the peephole cleanup pass before routing
      --no-verify       skip the routing verifier
      --timing          add per-route and per-stage wall times (route_us,
                        stage_us) to the JSON stats; off by default so
                        stats stay bit-identical across runs and thread
                        counts

CODAR ablation knobs:
      --no-context --no-duration --no-commutativity --no-fine-priority
      --window N        commutative-front scan cap (<=0 unbounded)
      --stagnation N    forced SWAPs before the shortest-path escape

codar-fid objective weights (see README "Routing objectives"):
      --alpha X         distance term weight (default 1)
      --beta X          log-fidelity term weight (default 5; >= 0)
      --gamma X         decoherence term weight (default 1; >= 0)
                        beta=0 gamma=0 routes byte-identically to codar
)";
}

}  // namespace codar::cli
