#pragma once

// Command-line surface of the `codar` driver binary: QASM in, routed QASM
// out, with device/router/initial-mapping selection, per-pass knobs, JSON
// statistics and a multi-threaded batch mode (directory of .qasm files, or
// the built-in 71-benchmark suite).
//
// Every flag is one row of an option table (OptionRow): spellings, serve
// `options` key, field, range, help line and whether it can change a
// routed result. The table is data only. Each front end keeps its own
// decoder over it (parse_flag for argv, service::parse_request for request
// JSON); both help texts render it; service::options_fingerprint folds it.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "codar/pipeline/spec.hpp"

namespace codar::cli {

/// Raised on malformed command lines; `what()` is the message to print
/// (the caller appends the usage text). Shared with the pipeline layer so
/// its name checks throw the same type the CLI catches.
using UsageError = pipeline::UsageError;

/// The routing-relevant core (router/mapping names, knobs, verify,
/// peephole) is the library-level RoutingSpec; Options adds the CLI's
/// I/O and presentation fields on top.
struct Options : pipeline::RoutingSpec {
  std::vector<std::string> inputs;  ///< Positional .qasm files.
  std::string batch_dir;            ///< --batch DIR: route every *.qasm in DIR.
  bool suite = false;               ///< --suite: route the built-in suite.

  std::string device = "tokyo";     ///< --device SPEC (see device_registry).

  int threads = 0;                  ///< --threads N; 0 = hardware concurrency.
  bool timing = false;              ///< --timing: stage wall times in the JSON.

  std::string output_path;          ///< -o FILE: routed QASM (default stdout).
  std::string stats_path;           ///< --stats FILE: JSON (default stderr/stdout).
  std::string describe_device;      ///< --describe-device SPEC.
  bool list_devices = false;        ///< --list-devices.
  bool list_routers = false;        ///< --list-routers.
  bool list_mappings = false;       ///< --list-mappings.
  bool help = false;                ///< --help.
};

/// The field an option sets; a bool field makes the option a switch.
using OptionRef =
    std::variant<bool*, int*, std::uint64_t*, double*, std::string*>;

/// Everything about one option but the struct that holds its field.
struct OptionSpec {
  std::string_view flag{};     ///< Long spelling, e.g. "--window".
  std::string_view alias{};    ///< Short spelling ("-j"), or empty.
  std::string_view key{};      ///< `codar serve` options key, or empty.
  std::string_view metavar{};  ///< Value placeholder in help; empty = switch.
  bool set_to = true;          ///< The value a switch flag stores.
  /// Range, narrowed further to the field type's own limits.
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  /// String options: throws UsageError on a bad value.
  void (*check)(const std::string&) = nullptr;
  bool affects_output = false;  ///< Folded into the route-cache key.
  std::string_view help{};  ///< Each '\n' starts an indented help line.
};

/// One option of a front end whose settings live in an `O`.
template <class O>
struct OptionRow : OptionSpec {
  OptionRef (*field)(O&) = nullptr;
};

/// A field accessor from a member path: member<&Options::codar, &C::x>.
template <auto... Path, class O>
OptionRef member(O& o) {
  return &(o .* ... .* Path);
}

/// The routing rows `codar` and `codar serve` share, in cache-key order.
std::span<const OptionRow<Options>> routing_options();

/// Empty when `v` is in range, else "must be >= N" or "must be <= N".
std::string range_error(const OptionSpec& spec, OptionRef field, double v);

/// Decodes one argv value into `field`, range-checked before any
/// narrowing; `arg` is the spelling used. Throws UsageError.
void set_from_flag(const OptionSpec& spec, OptionRef field,
                   const std::string& arg,
                   const std::function<std::string()>& value);

/// Consumes `arg` (and through `value` its argument) if a row spells it.
template <class O>
bool parse_flag(std::span<const OptionRow<O>> rows, O& opts,
                const std::string& arg,
                const std::function<std::string()>& value) {
  for (const OptionRow<O>& row : rows) {
    if (arg == row.flag || (!row.alias.empty() && arg == row.alias)) {
      set_from_flag(row, row.field(opts), arg, value);
      return true;
    }
  }
  return false;
}

/// One help entry, showing the default `default_value` points at.
std::string help_entry(const OptionSpec& spec, OptionRef default_value);

/// The help block for `rows`, defaults from a default-constructed O.
template <class O>
std::string render_help(std::span<const OptionRow<O>> rows) {
  O defaults;
  std::string out;
  for (const OptionRow<O>& row : rows) {
    out += help_entry(row, row.field(defaults));
  }
  return out;
}

/// Parses argv (excluding argv[0]). Throws UsageError on malformed input.
Options parse_args(const std::vector<std::string>& args);

/// parse_flag over routing_options(); `codar serve` uses it for the
/// request defaults given on its command line.
bool parse_routing_flag(Options& opts, const std::string& arg,
                        const std::function<std::string()>& value);

/// The full usage/help text.
std::string usage();

}  // namespace codar::cli
