#pragma once

// Internal wiring between DeviceRegistry::instance() and the built-in
// device catalog in builtin_devices.cpp, which it calls exactly once.
// Keeping the call explicit (instead of a file-scope registrar static)
// makes registration order deterministic and immune to static-library
// dead-stripping.

#include "codar/pipeline/device_registry.hpp"

namespace codar::pipeline::detail {

void register_builtin_devices(DeviceRegistry& registry);

}  // namespace codar::pipeline::detail
