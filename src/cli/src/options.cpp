#include "codar/cli/options.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <type_traits>

#include "codar/pipeline/pipeline.hpp"

namespace codar::cli {

namespace {

using core::CodarConfig;
using Fid = pipeline::RoutingSpec::FidWeights;

/// Eager name checks, so a typo fails at parse time with the known names.
void check_router(const std::string& name) { pipeline::router_named(name); }
void check_mapping(const std::string& name) { pipeline::mapping_named(name); }

// Table order is the route-cache fingerprint order of the output-affecting
// rows (schema 3); inert rows may sit anywhere.
constexpr OptionRow<Options> kRoutingRows[] = {
    {{.flag = "--device", .alias = "-d", .metavar = "SPEC",
      .help = "target device: a spec from --list-devices, or\n"
              "file:PATH.json (README \"Device files\")"},
     member<&Options::device>},
    {{.flag = "--router", .alias = "-r", .metavar = "NAME",
      .check = check_router, .affects_output = true,
      .help = "routing pass; see --list-routers"}, member<&Options::router>},
    {{.flag = "--initial", .key = "initial", .metavar = "NAME",
      .check = check_mapping, .affects_output = true,
      .help = "initial mapping; see --list-mappings"},
     member<&Options::mapping>},
    {{.flag = "--seed", .key = "seed", .metavar = "N", .affects_output = true,
      .help = "initial-mapping RNG seed"}, member<&Options::seed>},
    {{.flag = "--mapping-rounds", .key = "mapping_rounds", .metavar = "N",
      .lo = 1, .affects_output = true,
      .help = "SABRE reverse-traversal rounds"},
     member<&Options::mapping_rounds>},
    {{.flag = "--peephole", .key = "peephole", .affects_output = true,
      .help = "run the peephole cleanup pass before routing"},
     member<&Options::peephole>},
    {{.flag = "--no-verify", .key = "verify", .set_to = false,
      .affects_output = true, .help = "skip the routing verifier"},
     member<&Options::verify>},
    {{.flag = "--timing", .key = "timing",
      .help = "add route_us/stage_us wall times to the JSON\n"
              "stats (off: stats are bit-identical across runs)"},
     member<&Options::timing>},
    {{.flag = "--threads", .alias = "-j", .metavar = "N", .lo = 0,
      .help = "worker threads; 0 = hardware concurrency"},
     member<&Options::threads>},
    {{.flag = "--no-context", .key = "context", .set_to = false,
      .affects_output = true,
      .help = "CODAR ablation: SWAP choice ignores qubit locks"},
     member<&Options::codar, &CodarConfig::context_aware>},
    {{.flag = "--no-duration", .key = "duration", .set_to = false,
      .affects_output = true,
      .help = "CODAR ablation: every gate takes one cycle"},
     member<&Options::codar, &CodarConfig::duration_aware>},
    {{.flag = "--no-commutativity", .key = "commutativity", .set_to = false,
      .affects_output = true,
      .help = "CODAR ablation: DAG front layer, no commutation"},
     member<&Options::codar, &CodarConfig::commutativity_aware>},
    {{.flag = "--no-fine-priority", .key = "fine_priority", .set_to = false,
      .affects_output = true,
      .help = "CODAR ablation: basic SWAP priority only"},
     member<&Options::codar, &CodarConfig::fine_priority>},
    {{.flag = "--window", .key = "window", .metavar = "N",
      .affects_output = true,
      .help = "commutative-front scan cap (<= 0 unbounded)"},
     member<&Options::codar, &CodarConfig::front_window>},
    {{.flag = "--stagnation", .key = "stagnation", .metavar = "N", .lo = 1,
      .affects_output = true,
      .help = "forced SWAPs before the shortest-path escape"},
     member<&Options::codar, &CodarConfig::stagnation_threshold>},
    {{.flag = "--alpha", .key = "alpha", .metavar = "X",
      .affects_output = true,
      .help = "codar-fid distance term weight (README\n"
              "\"Routing objectives\")"}, member<&Options::fid, &Fid::alpha>},
    {{.flag = "--beta", .key = "beta", .metavar = "X", .lo = 0,
      .affects_output = true, .help = "codar-fid log-fidelity term weight"},
     member<&Options::fid, &Fid::beta>},
    {{.flag = "--gamma", .key = "gamma", .metavar = "X", .lo = 0,
      .affects_output = true,
      .help = "codar-fid decoherence term weight; beta=0\n"
              "gamma=0 routes byte-identically to codar"},
     member<&Options::fid, &Fid::gamma>},
};

/// The batch CLI's mode and I/O flags, which `codar serve` does not take.
constexpr OptionRow<Options> kCliRows[] = {
    {{.flag = "--output", .alias = "-o", .metavar = "FILE",
      .help = "routed QASM destination (one input; default stdout)"},
     member<&Options::output_path>},
    {{.flag = "--stats", .metavar = "FILE",
      .help = "JSON statistics destination (default: stderr for\n"
              "a single input, stdout for batch/suite)"},
     member<&Options::stats_path>},
    {{.flag = "--batch", .metavar = "DIR",
      .help = "route every *.qasm under DIR (parallel)"},
     member<&Options::batch_dir>},
    {{.flag = "--suite", .help = "route the built-in 71-benchmark suite"},
     member<&Options::suite>},
    {{.flag = "--list-devices", .help = "print every device spec"},
     member<&Options::list_devices>},
    {{.flag = "--describe-device", .metavar = "SPEC",
      .help = "print one device's shape + fingerprint"},
     member<&Options::describe_device>},
    {{.flag = "--list-routers", .help = "print every routing pass"},
     member<&Options::list_routers>},
    {{.flag = "--list-mappings", .help = "print every initial mapping"},
     member<&Options::list_mappings>},
    {{.flag = "--help", .alias = "-h", .help = "print this help"},
     member<&Options::help>},
};

/// A range bound as decimal digits: bounds are integral, and every bound
/// printed is finite.
std::string integer_text(double bound) {
  return std::to_string(std::llround(bound));
}

}  // namespace

std::span<const OptionRow<Options>> routing_options() { return kRoutingRows; }

std::string range_error(const OptionSpec& spec, OptionRef field, double v) {
  double lo = spec.lo;
  double hi = spec.hi;
  std::visit(
      [&](auto* f) {
        using T = std::remove_pointer_t<decltype(f)>;
        if constexpr (std::is_same_v<T, int> ||
                      std::is_same_v<T, std::uint64_t>) {
          using Limits = std::numeric_limits<T>;
          lo = std::max(lo, static_cast<double>(Limits::min()));
          hi = std::min(hi, static_cast<double>(Limits::max()));
        }
      },
      field);
  if (v < lo) return "must be >= " + integer_text(lo);
  if (v > hi) return "must be <= " + integer_text(hi);
  return {};
}

void set_from_flag(const OptionSpec& spec, OptionRef field,
                   const std::string& arg,
                   const std::function<std::string()>& value) {
  std::visit(
      [&](auto* f) {
        using T = std::remove_pointer_t<decltype(f)>;
        if constexpr (std::is_same_v<T, bool>) {
          *f = spec.set_to;
        } else if constexpr (std::is_same_v<T, std::string>) {
          *f = value();
          if (spec.check != nullptr) spec.check(*f);
        } else {
          // Each value parses in the widest type of its kind, so the range
          // check runs before any narrowing; an unsigned option rejects a
          // minus sign up front.
          using Wide = std::conditional_t<
              std::is_same_v<T, double>, double,
              std::conditional_t<std::is_signed_v<T>, long long,
                                 unsigned long long>>;
          const std::string text = value();
          if (std::is_unsigned_v<T> && text.starts_with('-')) {
            throw UsageError(arg + " must be >= 0");
          }
          Wide wide{};
          const char* end = text.data() + text.size();
          const auto [ptr, ec] = std::from_chars(text.data(), end, wide);
          const double number = static_cast<double>(wide);
          if (ec != std::errc() || ptr != end || !std::isfinite(number)) {
            throw UsageError(arg + " expects " +
                             (std::is_same_v<T, double> ? "a finite number"
                                                        : "an integer") +
                             ", got '" + text + "'");
          }
          const std::string bad = range_error(spec, field, number);
          if (!bad.empty()) throw UsageError(arg + " " + bad);
          *f = static_cast<T>(wide);
        }
      },
      field);
}

std::string help_entry(const OptionSpec& spec, OptionRef default_value) {
  const std::string indent(24, ' ');
  std::string out = spec.alias.empty() ? "      "
                                       : "  " + std::string(spec.alias) + ", ";
  out += std::string(spec.flag) +
         (spec.metavar.empty() ? "" : " " + std::string(spec.metavar));
  out += out.size() < 23 ? std::string(24 - out.size(), ' ') : "\n" + indent;
  for (const char c : spec.help) {
    out += c;
    if (c == '\n') out += indent;
  }
  std::string note;
  if (!spec.metavar.empty()) {  // a switch has no default to show
    std::ostringstream value;
    std::visit([&](auto* f) { value << *f; }, default_value);
    if (value.tellp() > 0) note = "default " + value.str();
  }
  if (std::isfinite(spec.lo)) note += "; >= " + integer_text(spec.lo);
  if (std::isfinite(spec.hi)) note += "; <= " + integer_text(spec.hi);
  if (note.empty()) return out + "\n";
  // On the help text's last line when it fits in 79 columns, else below.
  const std::size_t line = out.size() - (out.rfind('\n') + 1);
  out += line + note.size() + 3 > 79 ? "\n" + indent : " ";
  return out + "(" + note + ")\n";
}

bool parse_routing_flag(Options& opts, const std::string& arg,
                        const std::function<std::string()>& value) {
  return parse_flag(routing_options(), opts, arg, value);
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
    if (parse_routing_flag(opts, arg, value) ||
        parse_flag<Options>(kCliRows, opts, arg, value)) {
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      throw UsageError("unknown flag '" + arg + "'");
    }
    opts.inputs.push_back(arg);
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
  codar [options] --batch DIR | --suite
  codar serve [options]              NDJSON routing service with a route
                                     cache (see codar serve --help)

modes and I/O:
)" + render_help<Options>(kCliRows) +
         "\nrouting (also the request defaults of codar serve):\n" +
         render_help(routing_options());
}

}  // namespace codar::cli
