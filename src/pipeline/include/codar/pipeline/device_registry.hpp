#pragma once

// String-keyed device factory registry: each entry carries a name, a
// display spec, a one-line description and a factory, so adding a device
// means registering one entry — the CLI (`--device`, `--list-devices`),
// the serve protocol and the batch driver all pick it up without edits.
//
// Specs are either a bare name (`tokyo`, with aliases like `q20`) or a
// parameterized `name:ARG` form (`grid:4x5`, `linear:16`,
// `file:devices/tokyo.json`); the text before the first ':' selects the
// entry, the rest is handed to its factory. Unknown specs throw
// UsageError listing every registered spec, the same shape as the
// unknown router and mapping errors.
//
// The built-in devices self-register the first time the registry is used
// (instance() runs their registration exactly once, thread-safely); user
// code may add() further entries at startup, before concurrent use.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/pipeline/spec.hpp"

namespace codar::pipeline {

/// One registered device or device family.
struct DeviceEntry {
  std::string name;         ///< Registry key: the spec text before ':'.
  std::string spec;         ///< Display form, e.g. "q16" or "grid:RxC".
  std::string description;  ///< One line for --list-devices.
  /// Extra exact names the entry answers to (e.g. "q20" for "tokyo").
  std::vector<std::string> aliases;
  /// Builds the device. `spec` is the full user-given spec (for error
  /// messages); `arg` the text after ':' (empty for bare names). Throws
  /// UsageError on a malformed arg.
  std::function<arch::Device(const std::string& spec,
                             const std::string& arg)>
      make;
  bool takes_arg = false;  ///< Parameterized entry: requires "name:ARG".
  /// The factory touches the local filesystem (the `file:` loader).
  /// Remote entry points — `codar serve` request lines — refuse such
  /// specs: an untrusted client must not be able to make the server read
  /// arbitrary paths. Inline device objects are the remote alternative.
  bool local_only = false;
};

/// Ordered name → entry map; registration order is listing order.
class DeviceRegistry {
 public:
  /// Registers an entry. Throws std::logic_error on a duplicate name or
  /// alias, or a missing factory.
  void add(DeviceEntry entry);

  /// Entry whose name or alias is `name`, or nullptr when unregistered.
  const DeviceEntry* find(std::string_view name) const;

  /// Entry a *full* spec ("tokyo", "grid:4x5") resolves to — the one
  /// spec-to-entry rule, shared by make() and by trust-boundary checks
  /// (the serve protocol refuses local_only entries) so the two can
  /// never drift apart. nullptr when unregistered.
  const DeviceEntry* resolve(const std::string& spec) const;

  /// Builds the device for a full spec ("tokyo", "grid:4x5",
  /// "file:dev.json"). Throws UsageError for an unknown name — the
  /// message lists every registered spec — or a malformed parameter.
  arch::Device make(const std::string& spec) const;

  /// All entries in registration order.
  const std::vector<DeviceEntry>& entries() const { return entries_; }

  /// "q16|tokyo|...|grid:RxC|file:PATH.json" over the registered specs,
  /// in registration order (used in the unknown-device error).
  std::string specs() const;

  /// The process-wide registry (all presets, lattice generators and the
  /// `file:` JSON loader built in).
  static DeviceRegistry& instance();

 private:
  std::vector<DeviceEntry> entries_;
};

}  // namespace codar::pipeline
