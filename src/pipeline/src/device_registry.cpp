#include "codar/pipeline/device_registry.hpp"

#include <stdexcept>

#include "builtins.hpp"

namespace codar::pipeline {

void DeviceRegistry::add(DeviceEntry entry) {
  if (entry.name.empty() || !entry.make) {
    throw std::logic_error("device registration needs a name and a factory");
  }
  if (find(entry.name) != nullptr) {
    throw std::logic_error("duplicate device '" + entry.name + "'");
  }
  for (const std::string& alias : entry.aliases) {
    if (find(alias) != nullptr) {
      throw std::logic_error("duplicate device alias '" + alias + "'");
    }
  }
  entries_.push_back(std::move(entry));
}

const DeviceEntry* DeviceRegistry::find(std::string_view name) const {
  for (const DeviceEntry& e : entries_) {
    if (e.name == name) return &e;
    for (const std::string& alias : e.aliases) {
      if (alias == name) return &e;
    }
  }
  return nullptr;
}

const DeviceEntry* DeviceRegistry::resolve(const std::string& spec) const {
  return find(std::string_view(spec).substr(0, spec.find(':')));
}

arch::Device DeviceRegistry::make(const std::string& spec) const {
  const std::size_t colon = spec.find(':');
  const std::string head =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? std::string() : spec.substr(colon + 1);
  const DeviceEntry* entry = resolve(spec);
  if (entry == nullptr) {
    throw UsageError("unknown device '" + spec + "' (expected " + specs() +
                     ")");
  }
  if (entry->takes_arg && arg.empty()) {
    throw UsageError("device '" + head + "' expects " + entry->spec +
                     ", got '" + spec + "'");
  }
  if (!entry->takes_arg && colon != std::string::npos) {
    throw UsageError("device '" + head + "' takes no parameter (expected " +
                     entry->spec + "), got '" + spec + "'");
  }
  return entry->make(spec, arg);
}

std::string DeviceRegistry::specs() const {
  std::string out;
  for (const DeviceEntry& e : entries_) {
    if (!out.empty()) out += '|';
    out += e.spec;
  }
  return out;
}

DeviceRegistry& DeviceRegistry::instance() {
  // Magic static: built (and the builtins registered) exactly once, in a
  // thread-safe way, on first use.
  static DeviceRegistry& reg = *[] {
    auto* r = new DeviceRegistry();
    detail::register_builtin_devices(*r);
    return r;
  }();
  return reg;
}

}  // namespace codar::pipeline
