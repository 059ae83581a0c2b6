#pragma once

// The one writer behind every gated BENCH_*.json file. The shape is what
// scripts/check_bench_regression.py reads:
//
//   {<header fields>,
//    "gated_fields": [...],          (only when set)
//    "results": [
//     {<row fields>},
//     ...
//    ],
//    "summary": {<summary fields>}}
//
// Strings are json_quote'd; numbers print as a default std::ostream does
// (6 significant digits for doubles). Pre-rendered tokens go in raw().

#include <concepts>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codar/common/json.hpp"

namespace codar::bench {

/// The members of one flat JSON object, in insertion order.
class JsonFields {
 public:
  JsonFields& add(std::string_view key, std::string_view value) {
    return raw(key, common::json_quote(value));
  }
  template <typename T>
    requires std::integral<T> || std::floating_point<T>
  JsonFields& add(std::string_view key, T value) {
    std::ostringstream out;
    out << value;
    return raw(key, out.str());
  }
  /// `token` is emitted verbatim (an already-rendered JSON value).
  JsonFields& raw(std::string_view key, const std::string& token) {
    if (!body_.empty()) body_ += ", ";
    body_ += common::json_quote(key);
    body_ += ": ";
    body_ += token;
    return *this;
  }

  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

class BenchJson {
 public:
  JsonFields& header() { return header_; }
  JsonFields& summary() { return summary_; }
  JsonFields& add_row() { return rows_.emplace_back(); }

  /// The fields the regression gate compares exactly (absent: the gate's
  /// default of swaps/makespan/cycles).
  void set_gated_fields(std::vector<std::string> fields) {
    gated_ = std::move(fields);
  }

  std::string str() const {
    std::string out = "{" + header_.body();
    if (!gated_.empty()) {
      if (!header_.body().empty()) out += ",\n ";
      out += "\"gated_fields\": [";
      for (std::size_t i = 0; i < gated_.size(); ++i) {
        if (i > 0) out += ", ";
        out += common::json_quote(gated_[i]);
      }
      out += "]";
    }
    out += ",\n \"results\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += i > 0 ? ",\n  {" : "\n  {";
      out += rows_[i].body() + "}";
    }
    out += "\n ],\n \"summary\": {" + summary_.body() + "}}\n";
    return out;
  }

  /// Writes str() to `path`; prints an error and returns false on failure.
  bool write(const std::string& path) const {
    std::ofstream file(path);
    if (!(file << str())) {
      std::cerr << "error: cannot write " << path << "\n";
      return false;
    }
    return true;
  }

 private:
  JsonFields header_;
  std::vector<std::string> gated_;
  std::vector<JsonFields> rows_;
  JsonFields summary_;
};

}  // namespace codar::bench
