// The serve workloads: `codar serve` started in-process through
// service::start_serve on a loopback TCP port, driven by closed-loop
// clients — 2 connections, each keeping 8 requests in flight — against a
// worker pool of 2. Every round sends the same seeded request sequence to
// a freshly started server, so the server's counters repeat exactly from
// round to round.
//
//   serve_hot   zipf(s=1) requests over the suite names, one in eight
//               with one of three recalibrated inline Enfield devices. The
//               set-up fills a --cache-dir with every key the round asks
//               for; each round restarts the server on it, so every
//               request is a hit (first touch of a key from disk, later
//               touches from memory) and nothing is routed.
//   serve_cold  every request is a distinct seeded random circuit of one
//               fixed shape, sent as inline QASM to a server on an empty
//               --cache-dir: every request misses, routes and is appended
//               to the store. Uniform sizes keep the latency tail steady.
//
// The traced run cannot see inside the server, so after each traced round
// it replays the same requests in-process through the service's public
// functions (parse_request, device preparation, qasm::parse,
// RouteCache::get_or_route over a LogStore, cli::route_circuit,
// cli::to_json) on the same number of worker threads, with a span around
// each call. Queueing plus transport is the client-observed latency minus
// that replayed service time.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "codar/arch/device.hpp"
#include "codar/arch/device_json.hpp"
#include "codar/cli/report.hpp"
#include "codar/common/json.hpp"
#include "codar/pipeline/device_registry.hpp"
#include "codar/qasm/parser.hpp"
#include "codar/qasm/writer.hpp"
#include "codar/service/protocol.hpp"
#include "codar/service/route_cache.hpp"
#include "codar/service/server.hpp"
#include "codar/service/transport.hpp"
#include "codar/store/log_store.hpp"
#include "codar/store/report_codec.hpp"
#include "codar/workloads/generators.hpp"
#include "codar/workloads/suite.hpp"

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using codar::cli::RouteReport;
using codar::common::Json;
using codar::ir::Circuit;

constexpr int kConnections = 2;
constexpr std::size_t kWindow = 8;
constexpr int kWorkers = 2;

/// Requests per round. Sized so a round takes about a second on a
/// 4-core x86 box and a 10 s run pools well over 1000 latency samples.
constexpr std::size_t kHotRequests = 16000;
constexpr std::size_t kColdRequests = 250;
constexpr std::size_t kTinyRequests = 200;
/// Shape of every serve_cold circuit.
constexpr int kColdQubits = 8;
constexpr int kColdGates = 300;

/// The distinct request bodies (JSON members after "id") and the body
/// index of each request of a round.
struct ServeWorkload {
  bool hot = false;
  std::vector<std::string> bodies;
  std::vector<std::size_t> sequence;
};

std::string request_line(std::size_t id, const std::string& body) {
  return "{\"id\": " + std::to_string(id) + ", " + body + "}";
}

std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  return text;
}

/// How many of `n` requests each of `ranks` names gets under zipf(s=1):
/// the expected counts, rounded by largest remainder so they sum to n.
std::vector<std::size_t> zipf_counts(std::size_t ranks, std::size_t n) {
  double harmonic = 0.0;
  for (std::size_t k = 1; k <= ranks; ++k) {
    harmonic += 1.0 / static_cast<double>(k);
  }
  std::vector<std::size_t> counts(ranks);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t k = 0; k < ranks; ++k) {
    const double share = static_cast<double>(n) /
                         static_cast<double>(k + 1) / harmonic;
    counts[k] = static_cast<std::size_t>(share);
    assigned += counts[k];
    remainders.emplace_back(share - static_cast<double>(counts[k]), k);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t j = 0; assigned < n; ++j, ++assigned) {
    ++counts[remainders[j].second];
  }
  return counts;
}

/// The request multiset is fixed — zipf(s=1) expected counts over the
/// suite names, one request in eight carrying one of three recalibrated
/// inline Enfield devices — so every seed asks for the same work and the
/// quality totals do not move with it; the seed sets the order.
ServeWorkload hot_workload(const Args& args) {
  ServeWorkload w;
  w.hot = true;
  const std::vector<codar::workloads::BenchmarkSpec> suite =
      codar::workloads::benchmark_suite();
  std::vector<std::string> devices;
  for (int v = 0; v < 3; ++v) {
    codar::arch::Device dev = codar::arch::enfield_6x6();
    dev.calibration.set_duration_2q(
        0, 1, static_cast<codar::arch::Duration>(12 + 4 * v));
    devices.push_back(one_line(codar::arch::device_to_json(dev)));
  }
  const std::size_t n = args.tiny ? kTinyRequests : kHotRequests;
  const std::vector<std::size_t> counts = zipf_counts(suite.size(), n);
  std::map<std::pair<std::size_t, int>, std::size_t> body_of;
  for (std::size_t rank = 0, j = 0; rank < suite.size(); ++rank) {
    for (std::size_t c = 0; c < counts[rank]; ++c, ++j) {
      const int variant =
          j % 8 == 5 ? static_cast<int>((j / 8) % devices.size()) : -1;
      const auto [it, inserted] =
          body_of.emplace(std::make_pair(rank, variant), w.bodies.size());
      if (inserted) {
        std::string body =
            "\"suite_name\": " + codar::common::json_quote(suite[rank].name);
        if (variant >= 0) {
          body += ", \"device\": " + devices[static_cast<std::size_t>(variant)];
        }
        w.bodies.push_back(std::move(body));
      }
      w.sequence.push_back(it->second);
    }
  }
  seeded_shuffle(w.sequence, args.seed);
  return w;
}

ServeWorkload cold_workload(const Args& args) {
  ServeWorkload w;
  const std::size_t n = args.tiny ? kTinyRequests / 4 : kColdRequests;
  for (std::size_t i = 0; i < n; ++i) {
    const Circuit c = codar::workloads::random_circuit(
        kColdQubits, kColdGates, 0.5, args.seed * 1000003ULL + i);
    w.bodies.push_back("\"qasm\": " +
                       codar::common::json_quote(codar::qasm::to_qasm(c)));
    w.sequence.push_back(i);
  }
  return w;
}

/// A blocking NDJSON client over one transport connection.
class Client {
 public:
  explicit Client(const std::string& endpoint)
      : conn_(codar::service::connect_endpoint(endpoint,
                                               /*timeout_ms=*/10000)) {}

  bool send(const std::string& line) { return conn_->write_all(line + "\n"); }

  bool read_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[64 * 1024];
      std::size_t got = 0;
      if (conn_->read_some(chunk, sizeof chunk, &got, /*timeout_ms=*/60000) !=
          codar::service::ReadStatus::kData) {
        return false;
      }
      buffer_.append(chunk, got);
    }
  }

 private:
  std::unique_ptr<codar::service::Connection> conn_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

struct Round {
  bool transport_ok = true;
  std::vector<std::string> responses;  ///< By request id.
  std::vector<Clock::time_point> sent, received;
  double wall_s = 0.0;

  double latency_ms(std::size_t i) const {
    return std::chrono::duration<double, std::milli>(received[i] - sent[i])
        .count();
  }
};

/// Sends `lines` (request i carries id i) over kConnections closed-loop
/// connections — connection c sends ids c, c + kConnections, ... — each
/// keeping kWindow requests in flight.
Round drive(const std::string& endpoint,
            const std::vector<std::string>& lines) {
  Round round;
  const std::size_t n = lines.size();
  round.responses.resize(n);
  round.sent.resize(n);
  round.received.resize(n);
  std::atomic<bool> ok{true};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(endpoint);
        const auto stride = static_cast<std::size_t>(kConnections);
        const auto first = static_cast<std::size_t>(c);
        const std::size_t mine = n > first ? (n - first + stride - 1) / stride
                                           : 0;
        std::size_t next = 0, done = 0;
        std::string response;
        while (done < mine) {
          while (next < mine && next - done < kWindow) {
            const std::size_t i = first + next * stride;
            round.sent[i] = Clock::now();
            if (!client.send(lines[i])) throw std::runtime_error("send");
            ++next;
          }
          if (!client.read_line(&response)) throw std::runtime_error("read");
          const Clock::time_point now = Clock::now();
          constexpr std::string_view kPrefix = "{\"id\": ";
          if (response.compare(0, kPrefix.size(), kPrefix) != 0) {
            throw std::runtime_error("response without id");
          }
          const std::size_t id = std::strtoull(
              response.c_str() + kPrefix.size(), nullptr, 10);
          if (id >= n || id % stride != first) {
            throw std::runtime_error("response id out of range");
          }
          round.received[id] = now;
          round.responses[id] = std::move(response);
          ++done;
        }
      } catch (const std::exception&) {
        ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  round.wall_s = seconds_since(start);
  round.transport_ok = ok;
  return round;
}

/// The "result" object of one response line ("" when absent).
std::string_view result_of(const std::string& response) {
  constexpr std::string_view kKey = "\"result\": ";
  const std::size_t at = response.find(kKey);
  if (at == std::string::npos || response.empty() || response.back() != '}') {
    return {};
  }
  const std::size_t from = at + kKey.size();
  return std::string_view(response).substr(from, response.size() - 1 - from);
}

struct ServerStats {
  bool ok = false;
  std::uint64_t requests = 0, routed = 0, errors = 0;
  std::uint64_t mem_hits = 0, disk_hits = 0, misses = 0;
};

ServerStats probe_stats(const std::string& endpoint) {
  ServerStats s;
  try {
    Client client(endpoint);
    std::string line;
    if (!client.send(R"({"id": 0, "cmd": "stats"})") ||
        !client.read_line(&line)) {
      return s;
    }
    const Json doc = Json::parse(line);
    auto count = [](const Json& obj, const char* key) {
      const Json* v = obj.find(key);
      return v == nullptr ? 0 : static_cast<std::uint64_t>(v->as_number());
    };
    s.requests = count(doc, "requests");
    s.routed = count(doc, "routed");
    s.errors = count(doc, "errors");
    if (const Json* cache = doc.find("cache")) {
      s.mem_hits = count(*cache, "mem_hits");
      s.disk_hits = count(*cache, "disk_hits");
      s.misses = count(*cache, "misses");
      s.ok = true;
    }
  } catch (const std::exception&) {
    s.ok = false;
  }
  return s;
}

codar::cli::Options request_defaults() {
  codar::cli::Options defaults;
  defaults.device = "enfield";
  defaults.threads = kWorkers;
  return defaults;
}

std::unique_ptr<codar::service::ServerHandle> start_server(
    const std::string& cache_dir) {
  codar::service::ServeOptions opts;
  opts.defaults = request_defaults();
  opts.listen = "tcp:127.0.0.1:0";
  opts.cache_dir = cache_dir;
  return codar::service::start_serve(opts);
}

/// Runs fn(i) for i in [0, n) on kWorkers threads, claiming indices in
/// order from a shared counter (the server's FIFO queue, minus transport).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Suite circuits by name, built once.
const std::unordered_map<std::string, Circuit>& suite_index() {
  static const auto* index = [] {
    auto* m = new std::unordered_map<std::string, Circuit>;
    for (auto& spec : codar::workloads::benchmark_suite()) {
      m->emplace(spec.name, std::move(spec.circuit));
    }
    return m;
  }();
  return *index;
}

/// The in-process answer to one request body: the same input compiled
/// through cli::route_circuit and rendered by cli::to_json.
struct Reference {
  std::string result;
  std::uint64_t swaps = 0;
  std::uint64_t depth = 0;
  std::string error;
};

Reference compile_reference(const std::string& body,
                            const codar::cli::Options& defaults,
                            const codar::arch::Device& default_device) {
  Reference ref;
  try {
    const codar::service::ServeRequest req =
        codar::service::parse_request(request_line(0, body), defaults);
    std::string name = !req.name.empty() ? req.name : req.suite_name;
    Circuit parsed(0);
    const Circuit* circuit = nullptr;
    if (!req.suite_name.empty()) {
      circuit = &suite_index().at(req.suite_name);
    } else {
      parsed = codar::qasm::parse(req.qasm);
      circuit = &parsed;
      if (name.empty()) name = parsed.name();
    }
    const codar::arch::Device& device =
        req.inline_device ? *req.inline_device : default_device;
    RouteReport report =
        codar::cli::route_circuit(*circuit, device, req.opts, false);
    report.name = name;
    ref.error = report.error;
    ref.swaps = report.swaps;
    ref.depth = static_cast<std::uint64_t>(report.depth_out);
    ref.result = codar::cli::to_json(report, req.opts);
  } catch (const std::exception& e) {
    ref.error = e.what();
  }
  return ref;
}

/// What one in-process replay of a round measured.
struct Replay {
  std::vector<double> service_us;  ///< Per request.
  std::vector<std::string> results;
  std::vector<RouteReport> routed;  ///< Reports the route callback produced.
  std::vector<codar::service::CacheKey> keys;
  codar::service::CacheCounters counters;
  double open_us = 0.0;
  double wall_s = 0.0;
  std::unique_ptr<codar::store::LogStore> store;
};

/// Replays `lines` through the service's public functions on kWorkers
/// threads against a route cache backed by the store in `dir`.
Replay replay(const std::vector<std::string>& lines, const std::string& dir,
              Tracer& tracer) {
  const codar::cli::Options defaults = request_defaults();
  const std::size_t n = lines.size();
  Replay out;
  out.service_us.resize(n);
  out.results.resize(n);
  out.routed.resize(n);
  out.keys.resize(n);
  const Clock::time_point start = Clock::now();
  {
    const Clock::time_point t0 = Clock::now();
    const ScopedSpan span(tracer, "store.open", 0, 0);
    out.store = codar::store::LogStore::open(dir, {});
    out.open_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  }
  codar::service::RouteCache cache(256u << 20, 8);
  cache.attach_store(out.store.get());

  struct Prepared {
    std::shared_ptr<const codar::arch::Device> device;
    std::uint64_t fingerprint = 0;
  };
  std::mutex memo_mutex;
  std::map<std::string, Prepared> by_spec;
  std::map<std::uint64_t, Prepared> by_content;
  std::once_flag suite_once;
  std::unordered_map<std::string, std::uint64_t> suite_fp;

  auto replay_one = [&](std::size_t i) {
    const Clock::time_point t0 = Clock::now();
    const ScopedSpan root(tracer, "service.request", 0, i);
    codar::service::ServeRequest req;
    {
      const ScopedSpan span(tracer, "service.parse", root.id(), i);
      req = codar::service::parse_request(lines[i], defaults);
    }
    // Devices are prepared once per spec or content fingerprint, as the
    // server's device memo does.
    Prepared device;
    const std::uint64_t content_fp =
        req.inline_device ? req.inline_device->fingerprint() : 0;
    {
      const std::lock_guard<std::mutex> lock(memo_mutex);
      if (req.inline_device) {
        if (const auto it = by_content.find(content_fp);
            it != by_content.end()) {
          device = it->second;
        }
      } else if (const auto it = by_spec.find(req.opts.device);
                 it != by_spec.end()) {
        device = it->second;
      }
    }
    if (device.device == nullptr) {
      std::shared_ptr<const codar::arch::Device> built =
          req.inline_device ? req.inline_device
                            : std::make_shared<const codar::arch::Device>(
                                  codar::pipeline::DeviceRegistry::instance()
                                      .make(req.opts.device));
      {
        const ScopedSpan span(tracer, "arch.oracle_prepare", root.id(), i);
        built->graph.prepare();
      }
      device = {built, built->fingerprint()};
      const std::lock_guard<std::mutex> lock(memo_mutex);
      if (req.inline_device) {
        by_content.emplace(content_fp, device);
      } else {
        by_spec.emplace(req.opts.device, device);
      }
    }
    std::string name = !req.name.empty() ? req.name : req.suite_name;
    Circuit parsed(0);
    const Circuit* circuit = nullptr;
    std::uint64_t circuit_fp = 0;
    if (!req.suite_name.empty()) {
      std::call_once(suite_once, [&] {
        const ScopedSpan span(tracer, "workloads.suite_build", root.id(), i);
        for (const auto& [suite_name, c] : suite_index()) {
          suite_fp.emplace(suite_name, c.fingerprint());
        }
      });
      circuit = &suite_index().at(req.suite_name);
      circuit_fp = suite_fp.at(req.suite_name);
    } else {
      const ScopedSpan span(tracer, "qasm.parse", root.id(), i);
      parsed = codar::qasm::parse(req.qasm);
      circuit = &parsed;
      circuit_fp = parsed.fingerprint();
      if (name.empty()) name = parsed.name();
    }
    const codar::service::CacheKey key{
        circuit_fp, device.fingerprint,
        codar::service::options_fingerprint(req.opts)};
    out.keys[i] = key;
    RouteReport report;
    {
      const ScopedSpan lookup(tracer, "service.cache_lookup", root.id(), i);
      report = cache.get_or_route(key, [&] {
        const Clock::time_point r0 = Clock::now();
        RouteReport routed = codar::cli::route_circuit(
            *circuit, *device.device, req.opts, false);
        const std::uint32_t id = tracer.record("pipeline.run", r0,
                                               Clock::now(), lookup.id(), i);
        record_stages(tracer, routed.stage_us, r0, id, i);
        out.routed[i] = routed;
        return routed;
      });
    }
    report.name = name;
    {
      const ScopedSpan span(tracer, "service.render", root.id(), i);
      out.results[i] = codar::cli::to_json(report, req.opts);
    }
    out.service_us[i] =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  // A request that throws leaves its result empty, which the caller
  // counts as a failure.
  parallel_for(n, [&](std::size_t i) {
    try {
      replay_one(i);
    } catch (const std::exception&) {
      out.results[i].clear();
    }
  });
  out.wall_s = seconds_since(start);
  out.counters = cache.counters();
  return out;
}

double self_of(const std::map<std::string, double>& self, const char* name) {
  const auto it = self.find(name);
  return it == self.end() ? 0.0 : it->second;
}

RunResult run_serve(const Args& args, const ServeWorkload& w) {
  RunResult r;
  const std::size_t n = w.sequence.size();
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i) {
    lines.push_back(request_line(i, w.bodies[w.sequence[i]]));
  }

  // Expected results, compiled in-process before anything is timed.
  const codar::cli::Options defaults = request_defaults();
  const codar::arch::Device default_device =
      codar::pipeline::DeviceRegistry::instance().make(defaults.device);
  default_device.graph.prepare();
  std::vector<Reference> refs(w.bodies.size());
  parallel_for(refs.size(), [&](std::size_t k) {
    refs[k] = compile_reference(w.bodies[k], defaults, default_device);
  });
  std::uint64_t swaps = 0, depth = 0;
  for (const std::size_t k : w.sequence) {
    swaps += refs[k].swaps;
    depth += refs[k].depth;
  }
  for (const Reference& ref : refs) {
    if (!ref.error.empty()) r.fail("in-process compile failed: " + ref.error);
  }

  // Counts every response that is missing or differs from the in-process
  // compile of the same input.
  auto check_results = [&](auto&& result_at) {
    for (std::size_t i = 0; i < n; ++i) {
      ++r.attempted;
      const std::string_view got = result_at(i);
      if (got != refs[w.sequence[i]].result) {
        ++r.failed;
        r.fail("request " + std::to_string(i) +
               (got.empty() ? ": no result" : ": result differs from the "
                                              "in-process compile"));
      }
    }
  };

  const fs::path work = fs::path(args.work_dir) / ("serve-" + args.workload);
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string store_dir = (work / "store").string();

  // serve_hot set-up: a server on an empty --cache-dir answers each
  // distinct request once, persisting every report; then it stops. The
  // fill runs kFills times (the last one's store is kept).
  constexpr int kFills = 3;
  std::vector<std::string> fill_lines;
  for (std::size_t k = 0; k < w.bodies.size(); ++k) {
    fill_lines.push_back(request_line(k, w.bodies[k]));
  }
  std::vector<double> fill_s;
  for (int f = 0; w.hot && f < kFills; ++f) {
    fs::remove_all(store_dir);
    const Clock::time_point t0 = Clock::now();
    const auto server = start_server(store_dir);
    const Round fill = drive(server->endpoint(), fill_lines);
    server->shutdown();
    if (server->join() != 0 || !fill.transport_ok) {
      r.fail("cache fill failed");
    }
    fill_s.push_back(seconds_since(t0));
  }

  const std::size_t distinct = w.bodies.size();
  // Rounds of at least kPerRoundSamples requests report the median over
  // rounds of each round's percentile; smaller rounds pool their samples.
  constexpr std::size_t kPerRoundSamples = 1000;
  const bool per_round = n >= kPerRoundSamples;
  std::vector<double> setup_s, round_s, peak_mb, latency_ms, p50_ms, p99_ms;
  // Traced-run measurements, one entry per traced round.
  std::vector<double> replay_traced_s, replay_plain_s, wait_us, open_us;
  std::vector<std::map<std::string, double>> self;
  std::uint64_t cycles = 0, gates_routed = 0, put_bytes = 0;
  std::size_t puts = 0;
  codar::service::CacheCounters counters;
  ServerStats first_stats;
  const Clock::time_point epoch = Clock::now();
  for (int round_no = 0;
       round_no == 0 || seconds_since(epoch) < args.seconds; ++round_no) {
    if (!w.hot) fs::remove_all(store_dir);
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    const auto server = start_server(store_dir);
    setup_s.push_back(seconds_since(t0));
    const Round round = drive(server->endpoint(), lines);
    const ServerStats stats = probe_stats(server->endpoint());
    server->shutdown();
    const int rc = server->join();
    peak_mb.push_back(peak_rss_mb());

    round_s.push_back(round.wall_s);
    if (!round.transport_ok || rc != 0 || !stats.ok) {
      r.fail("round " + std::to_string(round_no) + ": transport failure");
    }
    check_results([&](std::size_t i) { return result_of(round.responses[i]); });
    std::vector<double> lat;
    for (std::size_t i = 0; i < n; ++i) {
      if (!round.responses[i].empty()) lat.push_back(round.latency_ms(i));
    }
    std::sort(lat.begin(), lat.end());
    p50_ms.push_back(percentile(lat, 0.50));
    p99_ms.push_back(percentile(lat, 0.99));
    if (!per_round) latency_ms.insert(latency_ms.end(), lat.begin(), lat.end());
    const bool expected =
        stats.requests == n && stats.errors == 0 &&
        (w.hot ? stats.routed == 0 && stats.misses == 0 &&
                     stats.disk_hits == distinct &&
                     stats.mem_hits == n - distinct
               : stats.routed == n && stats.misses == n &&
                     stats.mem_hits + stats.disk_hits == 0);
    if (!expected) {
      r.fail("round " + std::to_string(round_no) + ": server counted " +
             std::to_string(stats.mem_hits) + " memory hits, " +
             std::to_string(stats.disk_hits) + " disk hits, " +
             std::to_string(stats.misses) + " misses");
    }
    if (round_no == 0) first_stats = stats;

    if (!args.trace) continue;
    // Traced round: replay the same requests in-process with spans, then
    // once more without, for the tracing overhead.
    auto fresh_replay_dir = [&] {
      const fs::path dir = work / "replay";
      fs::remove_all(dir);
      if (w.hot) fs::copy(store_dir, dir, fs::copy_options::recursive);
      return dir.string();
    };
    Tracer tracer(true);
    Replay traced = replay(lines, fresh_replay_dir(), tracer);
    replay_traced_s.push_back(traced.wall_s);
    open_us.push_back(traced.open_us);
    check_results([&](std::size_t i) {
      return std::string_view(traced.results[i]);
    });
    for (std::size_t i = 0; i < n; ++i) {
      wait_us.push_back(round.latency_ms(i) * 1000.0 - traced.service_us[i]);
    }
    cycles = gates_routed = 0;
    for (const RouteReport& rep : traced.routed) {
      cycles += rep.cycles;
      gates_routed += rep.gates_routed;
    }
    counters = traced.counters;

    // The store layer, from direct calls on the replay's records: reads
    // of every key the hot round served from disk, appends of every report
    // the cold round routed.
    Tracer store_tracer(true);
    if (w.hot) {
      std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
               std::size_t>
          first_use;
      for (std::size_t i = 0; i < n; ++i) {
        const auto& k = traced.keys[i];
        first_use.emplace(std::make_tuple(k.circuit, k.device, k.options), i);
      }
      std::string payload;
      for (const auto& [key, i] : first_use) {
        const ScopedSpan span(store_tracer, "store.get", 0, i);
        if (!traced.store->get({std::get<0>(key), std::get<1>(key),
                                std::get<2>(key)},
                               &payload)) {
          r.fail("store lost the key of request " + std::to_string(i));
        }
      }
      puts = 0;
    } else {
      const std::string put_dir = store_dir + "-put";
      fs::remove_all(put_dir);
      {
        const auto store = codar::store::LogStore::open(put_dir, {});
        put_bytes = 0;
        puts = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::string payload =
              codar::store::encode_report(traced.routed[i]);
          const auto& k = traced.keys[i];
          const ScopedSpan span(store_tracer, "store.put", 0, i);
          store->put({k.circuit, k.device, k.options}, payload);
          put_bytes += payload.size();
          ++puts;
        }
      }
      fs::remove_all(put_dir);
    }
    traced.store.reset();
    Tracer off(false);
    replay_plain_s.push_back(replay(lines, fresh_replay_dir(), off).wall_s);

    std::vector<Span> spans = tracer.take();
    for (std::size_t i = 0; i < n; ++i) {
      spans.push_back({"client.request", tracer.next_id(), 0, i,
                       round.sent[i], round.received[i]});
    }
    std::vector<Span> store_spans = store_tracer.take();
    std::map<std::string, double> round_self = self_time_us(spans);
    for (const auto& [name, us] : self_time_us(store_spans)) {
      round_self[name] += us;
    }
    // Only the first traced round's spans are kept for the file.
    if (self.empty()) {
      append_ndjson(r.spans, spans, epoch, round_no);
      append_ndjson(r.spans, store_spans, epoch, round_no);
    }
    self.push_back(std::move(round_self));
  }
  fs::remove_all(work);
  if (r.failed != 0) r.correct = false;

  r.count("swaps", swaps);
  r.count("weighted_depth_out", depth);
  r.count("service.cache_mem_hits", first_stats.mem_hits);
  r.count("service.cache_disk_hits", first_stats.disk_hits);
  r.count("service.cache_misses", first_stats.misses);

  std::sort(latency_ms.begin(), latency_ms.end());
  const double typical = median(round_s);
  r.values["setup_s"] = median(fill_s) + median(setup_s);
  r.values["compile_s"] = typical;
  r.values["throughput_rps"] = static_cast<double>(n) / typical;
  r.values["latency_p50_ms"] =
      per_round ? median(p50_ms) : percentile(latency_ms, 0.50);
  r.values["latency_p99_ms"] =
      per_round ? median(p99_ms) : percentile(latency_ms, 0.99);
  r.values["peak_rss_mb"] = median(peak_mb);
  // Latency samples beyond p99 (per round when per_round).
  const std::size_t above_p99 =
      per_round ? n - static_cast<std::size_t>(0.99 * static_cast<double>(n))
                : static_cast<std::size_t>(
                      latency_ms.end() -
                      std::upper_bound(latency_ms.begin(), latency_ms.end(),
                                       r.values["latency_p99_ms"]));
  r.notes.push_back(std::to_string(round_s.size()) + " rounds of " +
                    std::to_string(n) + " requests (" +
                    std::to_string(distinct) + " distinct), " +
                    std::to_string(round_s.size() * n) +
                    " latency samples, " + std::to_string(above_p99) +
                    (per_round ? " above p99 per round" : " above p99"));
  if (!args.tiny && above_p99 < 10) {
    r.fail("fewer than 10 latency samples above p99");
  }

  if (args.trace) {
    auto median_self = [&](const char* name) {
      std::vector<double> v;
      for (const auto& s : self) v.push_back(self_of(s, name));
      return median(v);
    };
    for (const char* stage : {"pipeline.lower", "pipeline.initial",
                              "pipeline.route", "pipeline.report",
                              "pipeline.verify", "arch.oracle_prepare",
                              "qasm.parse", "service.parse", "service.render",
                              "service.cache_lookup", "store.get",
                              "store.put"}) {
      r.values[std::string(stage) + "_us"] = median_self(stage);
    }
    r.values["store.open_us"] = median(open_us);
    std::sort(wait_us.begin(), wait_us.end());
    r.values["service.wait_us_p50"] = percentile(wait_us, 0.50);
    r.values["service.wait_us_p99"] = percentile(wait_us, 0.99);
    const std::size_t lookups =
        counters.mem_hits + counters.disk_hits + counters.misses;
    r.values["service.cache_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(counters.hits()) /
                           static_cast<double>(lookups);
    r.values["trace.overhead_share"] =
        median(replay_traced_s) / median(replay_plain_s) - 1.0;
    // The replay's cache must have counted exactly what the server did.
    if (counters.mem_hits != first_stats.mem_hits ||
        counters.disk_hits != first_stats.disk_hits ||
        counters.misses != first_stats.misses) {
      r.fail("replayed cache counters differ from the server's");
    }
    r.count("core.cycles", cycles);
    r.count("core.gates_routed", gates_routed);
    r.count("store.get_count", w.hot ? distinct : 0);
    r.count("store.put_count", puts);
    r.count("store.put_bytes", put_bytes);
  }
  return r;
}

}  // namespace

RunResult run_serve_hot(const Args& args) {
  return run_serve(args, hot_workload(args));
}

RunResult run_serve_cold(const Args& args) {
  return run_serve(args, cold_workload(args));
}

}  // namespace perfbench
