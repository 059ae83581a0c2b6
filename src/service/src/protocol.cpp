#include "codar/service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "codar/arch/device_json.hpp"
#include "codar/common/fnv.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/pipeline/pipeline.hpp"

namespace codar::service {

namespace {

using common::Json;
using common::JsonError;
using common::json_quote;

[[noreturn]] void bad(const std::string& what) { throw ProtocolError(what); }

const std::string& require_string(const Json& v, std::string_view key) {
  if (!v.is_string()) bad("'" + std::string(key) + "' must be a string");
  return v.as_string();
}

/// Decodes one member of the request's "options" object into its row's
/// field. Integers must be integral and within 9e15 (past that a double
/// skips integers), and are range-checked before they are narrowed.
void set_from_json(const cli::OptionSpec& row, cli::OptionRef field,
                   const Json& v) {
  const std::string must = "'" + std::string(row.key) + "' must be ";
  std::visit(
      [&](auto* f) {
        using T = std::remove_pointer_t<decltype(f)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (!v.is_bool()) bad(must + "a boolean");
          *f = v.as_bool();
        } else if constexpr (std::is_same_v<T, std::string>) {
          *f = require_string(v, row.key);
          if (row.check != nullptr) row.check(*f);
        } else {
          const bool integer = !std::is_same_v<T, double>;
          if (!v.is_number()) bad(must + (integer ? "an integer" : "a number"));
          const double d = v.as_number();
          if (integer && (d != std::floor(d) || std::abs(d) > 9.0e15)) {
            bad(must + "an integer");
          }
          if (!std::isfinite(d)) bad(must + "a finite number");
          const std::string range = cli::range_error(row, field, d);
          if (!range.empty()) bad("'" + std::string(row.key) + "' " + range);
          *f = static_cast<T>(d);
        }
      },
      field);
}

}  // namespace

ServeRequest parse_request(const std::string& line,
                           const cli::Options& defaults) {
  Json doc = [&] {
    try {
      return Json::parse(line);
    } catch (const JsonError& e) {
      throw ProtocolError(e.what());
    }
  }();
  if (!doc.is_object()) bad("request must be a JSON object");
  // Strict schema: a typo'd key (e.g. "devics") must error, not silently
  // route with server defaults — same policy as inside "options". Same
  // for duplicates, where find() would silently drop all but the first.
  for (std::size_t i = 0; i < doc.members().size(); ++i) {
    const std::string& key = doc.members()[i].first;
    if (key != "id" && key != "cmd" && key != "qasm" &&
        key != "suite_name" && key != "name" && key != "device" &&
        key != "router" && key != "options") {
      bad("unknown request key '" + key + "'");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (doc.members()[j].first == key) {
        bad("duplicate request key '" + key + "'");
      }
    }
  }

  ServeRequest req;
  req.opts = defaults;
  if (const Json* id = doc.find("id")) {
    if (id->is_number()) {
      req.id_json = id->raw_number();
    } else if (id->is_string()) {
      req.id_json = json_quote(id->as_string());
    } else if (!id->is_null()) {
      bad("'id' must be a number or string");
    }
  }

  if (const Json* cmd = doc.find("cmd")) {
    const std::string& name = require_string(*cmd, "cmd");
    if (name != "stats") bad("unknown cmd '" + name + "'");
    // Same strict-schema policy as route requests: a control line
    // carrying route payload is a client bug, not something to drop.
    for (const char* key : {"qasm", "suite_name", "name", "device",
                            "router", "options"}) {
      if (doc.find(key)) {
        bad(std::string("'") + key + "' is not valid in a control request");
      }
    }
    req.kind = ServeRequest::Kind::kStats;
    return req;
  }

  const Json* qasm = doc.find("qasm");
  const Json* suite = doc.find("suite_name");
  if ((qasm != nullptr) == (suite != nullptr)) {
    bad("route requests need exactly one of 'qasm' or 'suite_name'");
  }
  if (qasm) req.qasm = require_string(*qasm, "qasm");
  if (suite) req.suite_name = require_string(*suite, "suite_name");

  if (const Json* name = doc.find("name")) {
    req.name = require_string(*name, "name");
  }
  if (const Json* device = doc.find("device")) {
    if (device->is_string()) {
      // Trust boundary: request lines are untrusted, and some registry
      // entries (the `file:` JSON loader) read the server's filesystem.
      // Refuse those here — the serve *command line* may still use them,
      // and remote clients ship inline device objects instead.
      const std::string& spec = device->as_string();
      if (const pipeline::DeviceEntry* entry =
              pipeline::DeviceRegistry::instance().resolve(spec)) {
        if (entry->local_only) {
          bad("device spec '" + spec + "' reads the server filesystem and "
              "is not allowed in requests; send an inline device object "
              "instead");
        }
      }
      req.opts.device = spec;
    } else if (device->is_object()) {
      // Inline device description, same schema as `--device file:`. Parse
      // errors become per-request protocol errors.
      try {
        auto parsed = std::make_shared<const arch::Device>(
            arch::device_from_json(*device));
        req.opts.device = parsed->name;  // display-only (not cache-keyed)
        req.inline_device = std::move(parsed);
      } catch (const std::invalid_argument& e) {
        bad(e.what());
      }
    } else {
      bad("'device' must be a spec string or a device object");
    }
  }
  // Name checks throw UsageError, listing the known names; on a request
  // line that is a ProtocolError.
  try {
    if (const Json* router = doc.find("router")) {
      req.opts.router = require_string(*router, "router");
      pipeline::router_named(req.opts.router);
    }
    if (const Json* options = doc.find("options")) {
      if (!options->is_object()) bad("'options' must be an object");
      const auto rows = cli::routing_options();
      const auto& members = options->members();
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::string& key = members[i].first;
        const auto row = std::find_if(rows.begin(), rows.end(), [&](auto& r) {
          return !r.key.empty() && r.key == key;
        });
        if (row == rows.end()) bad("unknown option '" + key + "'");
        for (std::size_t j = 0; j < i; ++j) {
          if (members[j].first == key) bad("duplicate option '" + key + "'");
        }
        set_from_json(*row, row->field(req.opts), members[i].second);
      }
    }
  } catch (const pipeline::UsageError& e) {
    bad(e.what());
  }
  return req;
}

std::uint64_t options_fingerprint(const cli::Options& opts) {
  common::Fnv1a h;
  h.u64(3);  // fingerprint schema version (3: + codar-fid objective weights)
  // The accessors take a mutable Options; this loop only reads through them.
  auto& fields = const_cast<cli::Options&>(opts);
  for (const cli::OptionRow<cli::Options>& row : cli::routing_options()) {
    if (!row.affects_output) continue;
    std::visit(
        [&h](const auto* f) {
          using T = std::remove_cvref_t<decltype(*f)>;
          if constexpr (std::is_same_v<T, bool>) {
            h.byte(*f ? 1 : 0);
          } else if constexpr (std::is_same_v<T, double>) {
            h.f64(*f);
          } else if constexpr (std::is_same_v<T, std::string>) {
            h.str(*f);
          } else {
            h.u64(static_cast<std::uint64_t>(*f));  // int sign-extends
          }
        },
        row.field(fields));
  }
  // Schema 3 ends with the count of a since-removed free-form knob list,
  // always 0 for these routers. Hashing the constant keeps every key
  // written under schema 3 valid, so a persisted --cache-dir still hits.
  h.u64(0);
  return h.value();
}

}  // namespace codar::service
