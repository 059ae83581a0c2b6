#pragma once

// Span recording for the traced run. The benchmark wraps a span around
// each call it makes into a layer's public function; a span records its
// name, start, end, parent span and request id. Spans stay in memory and
// are written out as NDJSON when the run ends (only those of the first
// traced iteration or round: one serve round records about 10^5). A
// layer's self time is a span's duration minus the part covered by its
// child spans.
//
// A disabled Tracer records nothing and ScopedSpan then costs one branch,
// so the same code path serves the untraced and the traced measurement.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< A string literal (layer.function).
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root.
  std::uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// A fresh span id (never 0).
  std::uint32_t next_id() { return ++last_id_; }

  /// Records a finished span. Thread-safe.
  void record(const Span& span);

  /// Records a span with explicit bounds and returns its id (0 when
  /// disabled).
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent,
                       std::uint64_t request);

  /// Moves the recorded spans out, leaving the tracer empty.
  std::vector<Span> take();

 private:
  bool enabled_;
  std::atomic<std::uint32_t> last_id_{0};
  std::mutex m_;
  std::vector<Span> spans_;
};

/// RAII span: starts on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent,
             std::uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
};

/// Span name of a pipeline stage as RouteReport::stage_us names it
/// ("lower" -> "pipeline.lower"; unknown stages -> "pipeline.other").
const char* stage_span_name(const std::string& stage);

/// Records the stages of one pipeline run as children of `parent`, laid
/// end to end from `start` using the durations the pipeline measured
/// itself (RouteReport::stage_us).
template <typename StageList>
void record_stages(Tracer& tracer, const StageList& stages,
                   Clock::time_point start, std::uint32_t parent,
                   std::uint64_t request) {
  if (!tracer.enabled()) return;
  Clock::time_point at = start;
  for (const auto& stage : stages) {
    const Clock::time_point end = at + std::chrono::microseconds(stage.us);
    tracer.record(stage_span_name(stage.stage), at, end, parent, request);
    at = end;
  }
}

/// Self time per span name, microseconds, summed over `spans`.
std::map<std::string, double> self_time_us(const std::vector<Span>& spans);

/// Appends `spans` as NDJSON lines (times in µs since `epoch`), tagged
/// with `unit` (the traced iteration or round they belong to).
void append_ndjson(std::string& out, const std::vector<Span>& spans,
                   Clock::time_point epoch, int unit);

}  // namespace perfbench
