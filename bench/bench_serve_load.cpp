// Load generator for the socket-transport `codar serve`: spins up an
// in-process TCP server, then drives it with concurrent pipelined NDJSON
// clients over four request mixes — sequential (each client walks the
// 71-benchmark suite in order), uniform (random benchmark per request),
// zipf (skewed toward the head of the suite, the classic hot-key cache
// shape) and warm_start (the sequential mix against a server restarted on
// a populated --cache-dir, so every request is answered by the persistent
// tier without routing). A deterministic slice of every mix ships an
// inline calibrated device object instead of the server's default device
// spec, so the content-addressed device path is on the measured path too.
//
//   bench_serve_load [OUTPUT.json] [--clients N] [--requests N]
//                    [--seed S] [--threads N]
//
// Emitted per mix: request/routed/error, cache-hit/miss and disk-hit
// counters — which are exact under concurrency (single-flight: every
// distinct (circuit, device, options) key routes — and probes disk —
// exactly once, so the counts depend only on the seeded request
// sequences, never on scheduling) and therefore CI-gated via
// BENCH_serve.json — plus throughput and p50/p95/p99 request latency,
// which are machine-dependent and stay informational. The RNG is raw
// mt19937_64 arithmetic (no std:: distributions, whose mappings vary by
// standard library) so the gated counts are identical on every platform.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/arch/device_json.hpp"
#include "codar/common/json.hpp"
#include "codar/service/server.hpp"
#include "codar/service/transport.hpp"
#include "codar/workloads/suite.hpp"
#include "support/bench_json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using codar::common::Json;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A blocking NDJSON client over one transport connection.
class NdjsonClient {
 public:
  explicit NdjsonClient(const std::string& endpoint)
      : conn_(codar::service::connect_endpoint(endpoint,
                                               /*timeout_ms=*/10000)) {}

  bool send(const std::string& line) { return conn_->write_all(line + "\n"); }

  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[64 * 1024];
      std::size_t got = 0;
      if (conn_->read_some(chunk, sizeof chunk, &got,
                           /*timeout_ms=*/120000) !=
          codar::service::ReadStatus::kData) {
        return false;
      }
      buffer_.append(chunk, got);
    }
  }

 private:
  std::unique_ptr<codar::service::Connection> conn_;
  std::string buffer_;
};

enum class Mix { kSequential, kUniform, kZipf, kWarmStart };

const char* mix_name(Mix mix) {
  switch (mix) {
    case Mix::kSequential: return "sequential";
    case Mix::kUniform: return "uniform";
    case Mix::kZipf: return "zipf";
    case Mix::kWarmStart: return "warm_start";
  }
  return "?";
}

/// Zipf(s=1) cumulative distribution over ranks 0..n-1. s is fixed at 1
/// on purpose: the weights are plain divisions (correctly rounded IEEE
/// ops), so the table — and with it the gated request mix — is
/// bit-identical across platforms, which pow() would not guarantee.
std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) total += 1.0 / static_cast<double>(k + 1);
  double cum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    cum += 1.0 / static_cast<double>(k + 1) / total;
    cdf[k] = cum;
  }
  cdf[n - 1] = 1.0;  // guard against rounding shortfall
  return cdf;
}

/// Uniform double in [0,1) from raw engine output — top 53 bits.
double unit_double(std::uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

struct ClientResult {
  std::vector<double> latencies_ms;
  std::size_t errors = 0;
  bool transport_ok = true;
};

struct MixRow {
  std::string name;
  std::uint64_t requests = 0;
  std::uint64_t routed = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t cache_entries = 0;
  double wall_ms = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(q * sorted.size()));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_serve.json";
  int clients = 8;
  int requests = 400;     // per client, per mix
  std::uint64_t seed = 1;
  int threads = 0;        // server worker pool; 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--clients" && i + 1 < argc) {
      clients = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--requests" && i + 1 < argc) {
      requests = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      output = arg;
    }
  }

  const std::vector<codar::workloads::BenchmarkSpec> suite =
      codar::workloads::benchmark_suite();
  const std::vector<double> cdf = zipf_cdf(suite.size());

  // Pre-render the request line bodies once: {"suite_name": ...} for the
  // default device, plus three recalibrated Enfield variants shipped as
  // inline device objects (distinct fingerprints, so distinct cache keys
  // — the inline-device path does real routing work, not just lookups).
  auto one_line = [](std::string text) {
    for (char& c : text) {
      if (c == '\n') c = ' ';
    }
    return text;
  };
  std::vector<std::string> inline_devices;
  for (int v = 0; v < 3; ++v) {
    codar::arch::Device dev = codar::arch::enfield_6x6();
    dev.calibration.set_duration_2q(0, 1,
                                    static_cast<codar::arch::Duration>(12 + 4 * v));
    inline_devices.push_back(one_line(codar::arch::device_to_json(dev)));
  }

  codar::bench::BenchJson json;
  json.header()
      .add("clients", clients)
      .add("requests_per_client", requests)
      .add("seed", seed);
  json.set_gated_fields({"requests", "routed", "errors", "cache_hits",
                         "cache_misses", "disk_hits"});
  double total_wall_ms = 0.0;
  std::uint64_t total_requests = 0;
  bool healthy = true;

  // Drives `clients` concurrent pipelined connections against `handle`
  // with mix `mix`; `m` seeds the per-mix RNG stream. The warm_start mix
  // replays the sequential request sequence exactly (same seed index), so
  // the persistent tier holds every key the measured pass asks for.
  auto drive_load = [&](codar::service::ServerHandle& handle, Mix mix,
                        std::size_t m,
                        std::vector<ClientResult>& per_client) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, mix, m, c] {
        ClientResult& out = per_client[static_cast<std::size_t>(c)];
        NdjsonClient client(handle.endpoint());
        std::mt19937_64 rng(seed * 1000003ULL + m * 1009ULL +
                            static_cast<std::uint64_t>(c));
        std::vector<Clock::time_point> sent(
            static_cast<std::size_t>(requests));
        out.latencies_ms.reserve(static_cast<std::size_t>(requests));
        constexpr int kWindow = 32;  // below --max-inflight: no parking
        int next = 0, done = 0;
        while (done < requests) {
          while (next < requests && next - done < kWindow) {
            std::size_t idx = 0;
            switch (mix) {
              case Mix::kSequential:
              case Mix::kWarmStart:
                idx = static_cast<std::size_t>(next) % suite.size();
                break;
              case Mix::kUniform:
                idx = static_cast<std::size_t>(rng() % suite.size());
                break;
              case Mix::kZipf: {
                const double u = unit_double(rng());
                idx = static_cast<std::size_t>(
                    std::upper_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                idx = std::min(idx, suite.size() - 1);
                break;
              }
            }
            std::string line = "{\"id\": " + std::to_string(next) +
                               ", \"suite_name\": " +
                               codar::common::json_quote(suite[idx].name);
            // Every 8th request ships an inline calibrated device. The
            // variant choice burns one rng() draw in the random mixes so
            // the benchmark sequence stays aligned with it.
            if (next % 8 == 5) {
              const std::size_t v =
                  mix == Mix::kUniform || mix == Mix::kZipf
                      ? static_cast<std::size_t>(
                            rng() % inline_devices.size())
                      : (static_cast<std::size_t>(next) / 8) %
                            inline_devices.size();
              line += ", \"device\": " + inline_devices[v];
            }
            line += "}";
            sent[static_cast<std::size_t>(next)] = Clock::now();
            if (!client.send(line)) {
              out.transport_ok = false;
              return;
            }
            ++next;
          }
          std::string response;
          if (!client.read_line(&response)) {
            out.transport_ok = false;
            return;
          }
          const Clock::time_point now = Clock::now();
          try {
            const Json doc = Json::parse(response);
            const Json* id = doc.find("id");
            const std::size_t req_idx = static_cast<std::size_t>(
                std::strtoull(id->raw_number().c_str(), nullptr, 10));
            out.latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(now -
                                                          sent[req_idx])
                    .count());
            if (doc.find("error") != nullptr) ++out.errors;
          } catch (const std::exception&) {
            ++out.errors;
          }
          ++done;
        }
      });
    }
    for (std::thread& t : workers) t.join();
  };

  const Mix mixes[] = {Mix::kSequential, Mix::kUniform, Mix::kZipf,
                       Mix::kWarmStart};
  constexpr std::size_t kMixCount = sizeof mixes / sizeof mixes[0];
  // The warm_start mix replays the sequential stream, so it reuses the
  // sequential RNG index — the request sequences must match exactly.
  const std::size_t mix_seed_index[] = {0, 1, 2, 0};
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("codar_serve_bench_cache_" + std::to_string(::getpid())))
          .string();
  for (std::size_t m = 0; m < kMixCount; ++m) {
    const Mix mix = mixes[m];

    // Every mix gets a fresh server (and so a cold memory cache): the
    // gated counters then describe this mix alone.
    codar::service::ServeOptions sopts;
    sopts.defaults.device = "enfield";
    sopts.defaults.threads = threads;
    sopts.listen = "tcp:127.0.0.1:0";
    if (mix == Mix::kWarmStart) {
      // Populate pass (unmeasured): a server on a fresh --cache-dir
      // routes the sequential mix and persists every report, then stops —
      // the hard-stop-and-restart shape the persistent tier exists for.
      std::filesystem::remove_all(cache_dir);
      sopts.cache_dir = cache_dir;
      {
        const auto populate = codar::service::start_serve(sopts);
        std::vector<ClientResult> ignored(
            static_cast<std::size_t>(clients));
        drive_load(*populate, mix, mix_seed_index[m], ignored);
        for (const ClientResult& r : ignored) {
          if (!r.transport_ok || r.errors != 0) healthy = false;
        }
        populate->shutdown();
        if (populate->join() != 0) healthy = false;
      }
    }
    const auto handle = codar::service::start_serve(sopts);

    std::vector<ClientResult> per_client(
        static_cast<std::size_t>(clients));
    const Clock::time_point wall_start = Clock::now();
    drive_load(*handle, mix, mix_seed_index[m], per_client);
    const double wall_ms = ms_since(wall_start);

    MixRow row;
    row.name = mix_name(mix);
    row.wall_ms = wall_ms;
    std::vector<double> latencies;
    for (const ClientResult& r : per_client) {
      if (!r.transport_ok) healthy = false;
      row.errors += r.errors;
      latencies.insert(latencies.end(), r.latencies_ms.begin(),
                       r.latencies_ms.end());
    }
    std::sort(latencies.begin(), latencies.end());
    row.p50_ms = percentile(latencies, 0.50);
    row.p95_ms = percentile(latencies, 0.95);
    row.p99_ms = percentile(latencies, 0.99);
    row.throughput_rps =
        wall_ms > 0.0 ? static_cast<double>(latencies.size()) /
                            (wall_ms / 1000.0)
                      : 0.0;

    // The server-side counters are the gated truth; client-side errors
    // cross-check them.
    {
      NdjsonClient probe(handle->endpoint());
      std::string line;
      if (!probe.send(R"({"id": 0, "cmd": "stats"})") ||
          !probe.read_line(&line)) {
        healthy = false;
      } else {
        const Json stats = Json::parse(line);
        auto count = [&stats](const char* field) {
          return static_cast<std::uint64_t>(stats.find(field)->as_number());
        };
        row.requests = count("requests");
        row.routed = count("routed");
        row.errors = count("errors");
        const Json* cache = stats.find("cache");
        row.cache_hits =
            static_cast<std::uint64_t>(cache->find("hits")->as_number());
        row.cache_misses =
            static_cast<std::uint64_t>(cache->find("misses")->as_number());
        row.disk_hits =
            static_cast<std::uint64_t>(cache->find("disk_hits")->as_number());
        row.cache_entries =
            static_cast<std::uint64_t>(cache->find("entries")->as_number());
      }
    }
    handle->shutdown();
    if (handle->join() != 0) healthy = false;

    std::cerr << row.name << ": " << row.requests << " requests, "
              << row.routed << " routed, " << row.cache_hits << " hits, "
              << static_cast<std::uint64_t>(row.throughput_rps)
              << " req/s, p50 " << row.p50_ms << " ms, p99 " << row.p99_ms
              << " ms\n";

    total_wall_ms += row.wall_ms;
    total_requests += row.requests;
    json.add_row()
        .add("name", row.name)
        .add("requests", row.requests)
        .add("routed", row.routed)
        .add("errors", row.errors)
        .add("cache_hits", row.cache_hits)
        .add("cache_misses", row.cache_misses)
        .add("disk_hits", row.disk_hits)
        .add("cache_entries", row.cache_entries)
        .add("throughput_rps", row.throughput_rps)
        .add("p50_ms", row.p50_ms)
        .add("p95_ms", row.p95_ms)
        .add("p99_ms", row.p99_ms)
        .add("wall_ms", row.wall_ms);
  }
  {
    std::error_code ec;
    std::filesystem::remove_all(cache_dir, ec);
  }

  json.summary()
      .add("mixes", kMixCount)
      .add("total_requests", total_requests)
      .add("total_wall_ms", total_wall_ms);
  if (!json.write(output)) return 1;
  std::cout << total_requests << " requests across 4 mixes in "
            << total_wall_ms << " ms -> " << output << "\n";
  return healthy ? 0 : 1;
}
