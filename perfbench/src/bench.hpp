#pragma once

// Shared types of the benchmark program: the parsed command line, the
// result one run hands back to main(), and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few seconds of work (the benchmark's own
  /// test); the output shape stays the same.
  bool tiny = false;
  /// Where the traced run writes its spans (NDJSON); empty = not written.
  std::string trace_out;
  /// Scratch directory for the serve workloads' --cache-dir stores.
  std::string work_dir = ".";
};

/// What one workload run reports. `values` holds metrics by name (main()
/// attaches the units and fills layers a workload does not exercise with
/// 0); `exact` holds the counts that must repeat exactly across runs with
/// the same seed; `notes` are human-readable lines (sample counts, failure
/// reasons).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, double> values;
  std::map<std::string, std::uint64_t> exact;
  std::vector<std::string> notes;
  std::string spans;  ///< The traced run's spans, NDJSON.

  /// Records a failed output check or a broken invariant.
  void fail(const std::string& reason) {
    correct = false;
    if (notes.size() < 50) notes.push_back("FAIL: " + reason);
  }
  /// Sets an exact count, both as a metric and for the cross-run check.
  void count(const std::string& name, std::uint64_t value) {
    exact[name] = value;
    values[name] = static_cast<double>(value);
  }
};

RunResult run_suite_batch(const Args& args);
RunResult run_grid_large(const Args& args);
RunResult run_serve_hot(const Args& args);
RunResult run_serve_cold(const Args& args);

/// Routes a small circuit, drops one gate from the routed output and
/// returns true iff the output check rejects it (and accepts the intact
/// circuit).
bool corrupted_output_is_caught();

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Nearest-rank percentile of an ascending-sorted vector, q in [0, 1].
double percentile(const std::vector<double>& sorted, double q);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

/// Returns freed heap memory to the OS, then restarts the peak-RSS
/// watermark at the current RSS, so peak_rss_mb() covers only what runs
/// after it. A no-op where /proc/self/clear_refs is
/// not writable; peak_rss_mb() then covers the whole process lifetime.
void reset_peak_rss();

/// Uniform double in [0, 1) from raw 64-bit engine output (top 53 bits),
/// so seeded draws are identical on every standard library.
inline double unit_double(std::uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

/// Seeded Fisher-Yates over raw engine output (portable across standard
/// libraries, unlike std::shuffle).
template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng() % i)]);
  }
}

}  // namespace perfbench
