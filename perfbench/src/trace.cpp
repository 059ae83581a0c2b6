#include "trace.hpp"

#include <string_view>
#include <utility>
#include <unordered_map>

namespace perfbench {

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(span);
}

std::uint32_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = next_id();
  span.parent = parent;
  span.request = request;
  span.start = start;
  span.end = end;
  record(span);
  return span.id;
}

std::vector<Span> Tracer::take() {
  const std::lock_guard<std::mutex> lock(m_);
  return std::exchange(spans_, {});
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name,
                       std::uint32_t parent, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.next_id();
  span_.parent = parent;
  span_.request = request;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end = Clock::now();
  tracer_.record(span_);
}

const char* stage_span_name(const std::string& stage) {
  static constexpr std::pair<std::string_view, const char*> kStages[] = {
      {"lower", "pipeline.lower"},   {"peephole", "pipeline.peephole"},
      {"initial", "pipeline.initial"}, {"route", "pipeline.route"},
      {"report", "pipeline.report"}, {"verify", "pipeline.verify"},
      {"render", "pipeline.render"},
  };
  for (const auto& [key, name] : kStages) {
    if (stage == key) return name;
  }
  return "pipeline.other";
}

std::map<std::string, double> self_time_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_us[s.parent] +=
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double us =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    if (const auto it = child_us.find(s.id); it != child_us.end()) {
      us -= it->second;
    }
    // Stage spans are laid out from integer-µs stage clocks, so children
    // can overrun their parent by a few rounding microseconds.
    self[s.name] += us > 0.0 ? us : 0.0;
  }
  return self;
}

void append_ndjson(std::string& out, const std::vector<Span>& spans,
                   Clock::time_point epoch, int unit) {
  auto us = [epoch](Clock::time_point t) {
    return std::to_string(
        std::chrono::duration_cast<std::chrono::microseconds>(t - epoch)
            .count());
  };
  for (const Span& s : spans) {
    out += "{\"unit\": " + std::to_string(unit) + ", \"name\": \"" +
           s.name + "\", \"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"request\": " + std::to_string(s.request) +
           ", \"start_us\": " + us(s.start) + ", \"end_us\": " + us(s.end) +
           "}\n";
  }
}

}  // namespace perfbench
