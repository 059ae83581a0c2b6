// Tests for the serve protocol layer: the dependency-free JSON parser, the
// request-line → Options mapping, and the option table both front ends and
// the route-cache key share.

#include "codar/service/protocol.hpp"

#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "codar/common/json.hpp"
#include "codar/service/server.hpp"

namespace codar::service {
namespace {

using common::Json;
using common::JsonError;
using common::json_quote;

// -- Json -------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e2").as_number(), -250.0);
  EXPECT_EQ(Json::parse("17").raw_number(), "17");
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = Json::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": ""})");
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_EQ(a->items()[2].find("b")->as_string(), "c");
  EXPECT_TRUE(doc.find("d")->find("e")->is_null());
  EXPECT_EQ(doc.find("f")->as_string(), "");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, DecodesUnicodeEscapes) {
  EXPECT_EQ(Json::parse(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("\u00e9")").as_string(), "\xC3\xA9");  // é
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xF0\x9F\x98\x80");
  EXPECT_THROW(Json::parse(R"("\ud83d")").as_string(), JsonError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("nul"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
  // RFC 8259 forbids leading zeros; ids echo verbatim so "007" would
  // poison response lines.
  EXPECT_THROW(Json::parse("007"), JsonError);
  EXPECT_THROW(Json::parse("-01"), JsonError);
  EXPECT_EQ(Json::parse("0").raw_number(), "0");
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_number(), 0.5);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{} extra"), JsonError);
  // Control characters must be escaped.
  EXPECT_THROW(Json::parse("\"a\nb\""), JsonError);
}

TEST(Json, DepthCapStopsHostileNesting) {
  const std::string bomb(10000, '[');
  EXPECT_THROW(Json::parse(bomb), JsonError);
}

TEST(Json, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

// -- parse_request ----------------------------------------------------------

cli::Options defaults() {
  cli::Options opts;
  opts.device = "tokyo";
  return opts;
}

TEST(ParseRequest, MinimalSuiteRequest) {
  const ServeRequest req =
      parse_request(R"({"id": 7, "suite_name": "qft_8"})", defaults());
  EXPECT_EQ(req.kind, ServeRequest::Kind::kRoute);
  EXPECT_EQ(req.id_json, "7");
  EXPECT_EQ(req.suite_name, "qft_8");
  EXPECT_TRUE(req.qasm.empty());
  EXPECT_EQ(req.opts.device, "tokyo");  // inherited default
}

TEST(ParseRequest, ExtrasOptionIsRejected) {
  // There is no free-form knob store: "extras" is an unknown option like
  // any other.
  try {
    parse_request(R"({"id": 1, "suite_name": "ghz_3",
                      "options": {"extras": {"beam": "8"}}})",
                  defaults());
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown option 'extras'");
  }
}

TEST(ParseRequest, IntegerOptionsAreRangeCheckedBeforeNarrowing) {
  auto with_option = [](const std::string& key, const std::string& value) {
    return parse_request(R"({"suite_name": "ghz_3", "options": {")" + key +
                             "\": " + value + "}}",
                         defaults());
  };
  // Values past INT_MAX used to wrap in the int cast: 2^32 passed the
  // stagnation >= 1 check and then became 0.
  for (const char* key : {"window", "stagnation", "mapping_rounds"}) {
    EXPECT_THROW(with_option(key, "4294967296"), ProtocolError) << key;
    EXPECT_THROW(with_option(key, "4294967297"), ProtocolError) << key;
  }
  // Zero SABRE rounds would fail every route on a router precondition.
  try {
    with_option("mapping_rounds", "0");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()), "'mapping_rounds' must be >= 1");
  }
  EXPECT_EQ(with_option("window", "-1").opts.codar.front_window, -1);
  EXPECT_EQ(with_option("stagnation", "2147483647")
                .opts.codar.stagnation_threshold,
            2147483647);
  EXPECT_EQ(with_option("mapping_rounds", "1").opts.mapping_rounds, 1);
  // The seed takes every integer a double holds exactly, [0, 9e15]; a
  // negative seed used to wrap to 2^64 - 1.
  EXPECT_EQ(with_option("seed", "9000000000000000").opts.seed,
            9000000000000000ULL);
  EXPECT_THROW(with_option("seed", "1e16"), ProtocolError);
  try {
    with_option("seed", "-1");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()), "'seed' must be >= 0");
  }
}

TEST(ParseRequest, DuplicateOptionIsRejected) {
  // Like a duplicate top-level key: the last value must not silently win.
  try {
    parse_request(R"({"suite_name": "ghz_3",
                      "options": {"seed": 1, "seed": 2}})",
                  defaults());
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()), "duplicate option 'seed'");
  }
}

TEST(ParseRequest, FidWeightOptionsParseAndValidate) {
  const ServeRequest req = parse_request(
      R"({"suite_name": "ghz_3", "router": "codar-fid",
          "options": {"alpha": 1.5, "beta": 0, "gamma": 2.25}})",
      defaults());
  EXPECT_EQ(req.opts.router, "codar-fid");
  EXPECT_EQ(req.opts.fid.alpha, 1.5);
  EXPECT_EQ(req.opts.fid.beta, 0.0);
  EXPECT_EQ(req.opts.fid.gamma, 2.25);
  // Numbers only; beta/gamma must be >= 0.
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "options": {"beta": "5"}})",
                             defaults()),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "options": {"gamma": -1}})",
                             defaults()),
               ProtocolError);
}

TEST(ParseRequest, FullRouteRequest) {
  const ServeRequest req = parse_request(
      R"({"id": "abc", "qasm": "OPENQASM 2.0;", "device": "linear:5",
          "router": "sabre", "name": "mine",
          "options": {"initial": "greedy", "seed": 3, "verify": false,
                      "window": 42, "context": false}})",
      defaults());
  EXPECT_EQ(req.id_json, "\"abc\"");
  EXPECT_EQ(req.qasm, "OPENQASM 2.0;");
  EXPECT_EQ(req.name, "mine");
  EXPECT_EQ(req.opts.device, "linear:5");
  EXPECT_EQ(req.opts.router, "sabre");
  EXPECT_EQ(req.opts.mapping, "greedy");
  EXPECT_EQ(req.opts.seed, 3u);
  EXPECT_FALSE(req.opts.verify);
  EXPECT_EQ(req.opts.codar.front_window, 42);
  EXPECT_FALSE(req.opts.codar.context_aware);
  EXPECT_TRUE(req.opts.codar.duration_aware);  // untouched default
}

TEST(ParseRequest, InlineDeviceObject) {
  const ServeRequest req = parse_request(
      R"({"id": 4, "suite_name": "ghz_3",
          "device": {"name": "inline pair", "qubits": 2,
                     "edges": [[0, 1]],
                     "calibration": {"edges": [
                       {"edge": [0, 1], "duration_2q": 7}]}}})",
      defaults());
  ASSERT_NE(req.inline_device, nullptr);
  EXPECT_EQ(req.inline_device->graph.num_qubits(), 2);
  EXPECT_EQ(req.inline_device->calibration.duration_2q(0, 1), 7);
  // The device spec string becomes the display name only.
  EXPECT_EQ(req.opts.device, "inline pair");

  // A spec string keeps the old behavior (no inline device).
  const ServeRequest by_name =
      parse_request(R"({"suite_name": "ghz_3", "device": "q16"})",
                    defaults());
  EXPECT_EQ(by_name.inline_device, nullptr);
  EXPECT_EQ(by_name.opts.device, "q16");

  // Filesystem-backed specs are refused on (untrusted) request lines:
  // a client must not be able to make the server read arbitrary paths.
  try {
    parse_request(R"({"suite_name": "ghz_3", "device": "file:/etc/shadow"})",
                  defaults());
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("inline device object"),
              std::string::npos)
        << e.what();
  }

  // Malformed inline devices are per-request protocol errors, with the
  // same strict schema as `--device file:`.
  EXPECT_THROW(
      parse_request(R"({"suite_name": "ghz_3", "device": 7})", defaults()),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "device": {"qubits": 2}})",
                             defaults()),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"suite_name": "ghz_3",
                                 "device": {"qubits": 2, "edges": [[0, 1]],
                                            "wat": 1}})",
                             defaults()),
               ProtocolError);
}

TEST(ParseRequest, StatsCommand) {
  const ServeRequest req =
      parse_request(R"({"id": 1, "cmd": "stats"})", defaults());
  EXPECT_EQ(req.kind, ServeRequest::Kind::kStats);
  EXPECT_EQ(req.id_json, "1");

  // Control requests are just as strictly validated as route requests:
  // stray route payload is a client bug, not something to drop.
  EXPECT_THROW(
      parse_request(R"({"cmd": "stats", "qasm": "garbage"})", defaults()),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"cmd": "stats", "device": "q16"})", defaults()),
      ProtocolError);
}

TEST(ParseRequest, RejectsBadRequests) {
  const cli::Options d = defaults();
  EXPECT_THROW(parse_request("not json", d), ProtocolError);
  EXPECT_THROW(parse_request("[1,2]", d), ProtocolError);
  // Needs exactly one circuit source.
  EXPECT_THROW(parse_request(R"({"id": 1})", d), ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "suite_name": "y"})", d),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"cmd": "reboot"})", d), ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "router": "qiskit"})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "options": {"wat": 1}})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "options": {"seed": "high"}})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"qasm": "x", "options": {"stagnation": 0}})", d),
      ProtocolError);
  EXPECT_THROW(parse_request(R"({"id": [], "qasm": "x"})", d),
               ProtocolError);
  // Strict top-level schema: a typo'd key must not silently fall back to
  // server defaults.
  EXPECT_THROW(
      parse_request(R"({"id": 1, "qasm": "x", "devics": "q16"})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id": 1, "suite_name": "x", "routers": "sabre"})", d),
      ProtocolError);
  // Duplicate keys are ambiguous (find() would keep only the first).
  EXPECT_THROW(
      parse_request(R"({"id": 1, "qasm": "a", "qasm": "b"})", d),
      ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"id": 1, "id": 2, "suite_name": "x"})", d),
      ProtocolError);
}

// -- The option table ---------------------------------------------------------

/// Sets `field` to a different value that both front ends accept.
void change(const cli::OptionSpec& row, cli::OptionRef field) {
  std::visit(
      [&](auto* f) {
        using T = std::remove_pointer_t<decltype(f)>;
        if constexpr (std::is_same_v<T, bool>) {
          *f = !*f;
        } else if constexpr (std::is_same_v<T, std::string>) {
          for (const std::string name : {"sabre", "greedy", "q16"}) {
            if (name == *f) continue;
            try {
              if (row.check != nullptr) row.check(name);
            } catch (const cli::UsageError&) {
              continue;
            }
            *f = name;
            return;
          }
          ADD_FAILURE() << row.flag << ": no other valid name";
        } else {
          *f += 1;
        }
      },
      field);
}

/// The field's value as an argv value (`json` false) or a JSON token.
std::string render(cli::OptionRef field, bool json) {
  return std::visit(
      [&](auto* f) -> std::string {
        using T = std::remove_pointer_t<decltype(f)>;
        if constexpr (std::is_same_v<T, bool>) {
          return *f ? "true" : "false";
        } else if constexpr (std::is_same_v<T, std::string>) {
          return json ? json_quote(*f) : *f;
        } else if constexpr (std::is_same_v<T, double>) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", *f);
          return buf;
        } else {
          return std::to_string(*f);
        }
      },
      field);
}

TEST(OptionTable, FingerprintFoldsExactlyTheOutputAffectingRows) {
  // A knob left out of the cache key would alias cache entries; an inert
  // field folded into it would fragment the cache.
  cli::Options base;
  const std::uint64_t fp = options_fingerprint(base);
  for (const cli::OptionRow<cli::Options>& row : cli::routing_options()) {
    cli::Options changed = base;
    change(row, row.field(changed));
    EXPECT_NE(render(row.field(changed), true),
              render(row.field(base), true))
        << row.flag;
    EXPECT_EQ(options_fingerprint(changed) != fp, row.affects_output)
        << row.flag;
  }
  // The batch CLI's mode and I/O fields are inert too.
  cli::Options io = base;
  io.inputs = {"a.qasm"};
  io.batch_dir = "dir";
  io.suite = true;
  io.output_path = "out.qasm";
  io.stats_path = "stats.json";
  io.describe_device = "q16";
  io.list_devices = io.list_routers = io.list_mappings = io.help = true;
  EXPECT_EQ(options_fingerprint(io), fp);
}

TEST(OptionTable, FlagAndRequestOptionAgree) {
  // One non-default value per row, once as a flag and once as a request
  // option, must land in the same field and the same cache key.
  for (const cli::OptionRow<cli::Options>& row : cli::routing_options()) {
    if (row.key.empty()) continue;
    cli::Options expected;
    change(row, row.field(expected));
    std::vector<std::string> args = {std::string(row.flag)};
    if (!row.metavar.empty()) {
      args.push_back(render(row.field(expected), false));
    }
    args.emplace_back("a.qasm");
    cli::Options from_flag = cli::parse_args(args);
    ServeRequest from_json = parse_request(
        R"({"suite_name": "ghz_3", "options": {")" + std::string(row.key) +
            "\": " + render(row.field(expected), true) + "}}",
        cli::Options{});
    const std::string want = render(row.field(expected), true);
    EXPECT_EQ(render(row.field(from_flag), true), want) << row.flag;
    EXPECT_EQ(render(row.field(from_json.opts), true), want) << row.key;
    EXPECT_EQ(options_fingerprint(from_flag),
              options_fingerprint(from_json.opts))
        << row.flag;
  }
}

TEST(OptionTable, BothHelpTextsListEveryRoutingFlag) {
  const std::string cli_help = cli::usage();
  const std::string serve_help = serve_usage();
  for (const cli::OptionRow<cli::Options>& row : cli::routing_options()) {
    for (const std::string_view spelling : {row.flag, row.alias}) {
      if (spelling.empty()) continue;
      EXPECT_NE(cli_help.find(spelling), std::string::npos) << spelling;
      EXPECT_NE(serve_help.find(spelling), std::string::npos) << spelling;
    }
  }
}

}  // namespace
}  // namespace codar::service
