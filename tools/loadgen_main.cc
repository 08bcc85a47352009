// Load generator for the network query service: N concurrent sessions
// each run a deterministic stream of generated correlated-subquery queries
// (the difftest generator's mix) and report throughput plus latency
// percentiles.
//
// By default the tool self-hosts: it builds the difftest catalog, starts
// an in-process QueryServer on an ephemeral port, and connects its
// sessions over real TCP — one command, fully deterministic, which is how
// CI produces BENCH_serve.json. With --port it targets an external
// orq_serve instead (which must serve the difftest catalog with the same
// --seed for the generated queries to bind).
//
// Usage:
//   orq_loadgen [--sessions N] [--queries N] [--seed N] [--timeout-ms N]
//               [--workers N] [--max-concurrent N] [--max-queued N]
//               [--threads N] [--host H] [--port N] [--json PATH]
//               [--plan-cache] [--distinct N] [--prepared]
//               [--min-hit-rate PCT]
//
// --plan-cache turns each session's stream into a repeated one (query i
// is base[i % distinct], default 8 distinct shapes) and enables the
// server-side plan cache via SET, so steady state serves cached plans.
// --prepared instead PREPAREs one parameterized statement per session and
// EXECUTEs it with a varying key — the prepared-statement fast path.
// --min-hit-rate asserts the server-reported plan-cache hit rate at the
// end of the run (exit 1 below the bar); this is the CI gate. --workers
// (self-hosted server) caps how many queries execute at once
// (--max-concurrent is clamped to it); each admitted query runs on its
// connection's thread.
//
// The --json report is one JSON-lines record in the BENCH_*.json schema
// (name/wall_ms/result_rows/rows_produced/error gate through
// bench_compare; qps, p50/p95/p99, and cache hit_rate ride along as
// extra counters).

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "difftest/dataset.h"
#include "difftest/qgen.h"
#include "obs/json.h"
#include "obs/stats.h"
#include "server/client.h"
#include "server/server.h"

namespace {

struct SessionStats {
  std::vector<int64_t> latencies_micros;
  int64_t ok = 0;
  int64_t errors = 0;    // engine errors (generated queries may error)
  int64_t timeouts = 0;  // Cancelled/DeadlineExceeded
  int64_t rejected = 0;  // admission Unavailable
  int64_t result_rows = 0;
  int64_t rows_produced = 0;
  orq::Status transport = orq::Status::OK();
};

/// Percentile over a sorted latency vector (nearest-rank on the closed
/// interval, so p100 is the max).
double PercentileMs(const std::vector<int64_t>& sorted, int pct) {
  if (sorted.empty()) return 0.0;
  const size_t index = (sorted.size() - 1) * static_cast<size_t>(pct) / 100;
  return static_cast<double>(sorted[index]) / 1000.0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: orq_loadgen [--sessions N] [--queries N] [--seed N]\n"
      "                   [--timeout-ms N] [--workers N] [--max-concurrent "
      "N]\n"
      "                   [--max-queued N] [--threads N] [--host H] [--port "
      "N]\n"
      "                   [--json PATH] [--plan-cache] [--distinct N]\n"
      "                   [--prepared] [--min-hit-rate PCT]\n");
  return 2;
}

/// Reads the value of one `name value` line out of the server's metrics
/// text; 0 when the counter never fired (RenderMetrics omits zeros).
int64_t ParseMetric(const std::string& metrics, const std::string& name) {
  const size_t pos = metrics.find(name);
  if (pos == std::string::npos) return 0;
  return std::atoll(metrics.c_str() + pos + name.size());
}

}  // namespace

int main(int argc, char** argv) {
  int sessions = 8;
  int queries_per_session = 25;
  uint64_t seed = 20260806;
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = self-host
  std::string json_path;
  bool plan_cache = false;
  bool prepared = false;
  int distinct = 8;
  double min_hit_rate = -1.0;  // percent; <0 = no gate
  orq::ServerOptions server_options;
  server_options.worker_threads = 4;
  server_options.admission.max_concurrent = 4;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = std::atoi(next("--sessions"));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      queries_per_session = std::atoi(next("--queries"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      server_options.default_timeout_ms = std::atoll(next("--timeout-ms"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      server_options.worker_threads = std::atoi(next("--workers"));
    } else if (std::strcmp(argv[i], "--max-concurrent") == 0) {
      server_options.admission.max_concurrent =
          std::atoi(next("--max-concurrent"));
    } else if (std::strcmp(argv[i], "--max-queued") == 0) {
      server_options.admission.max_queued = std::atoi(next("--max-queued"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      server_options.engine.exec.num_threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = std::atoi(next("--port"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next("--json");
    } else if (std::strcmp(argv[i], "--plan-cache") == 0) {
      plan_cache = true;
    } else if (std::strcmp(argv[i], "--prepared") == 0) {
      prepared = true;
      plan_cache = true;  // the EXECUTE fast path lives in the plan cache
    } else if (std::strcmp(argv[i], "--distinct") == 0) {
      distinct = std::atoi(next("--distinct"));
    } else if (std::strcmp(argv[i], "--min-hit-rate") == 0) {
      min_hit_rate = std::atof(next("--min-hit-rate"));
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return Usage();
    }
  }
  if (sessions < 1 || queries_per_session < 1) {
    std::fprintf(stderr, "--sessions/--queries expect positive counts\n");
    return 2;
  }
  if (distinct < 1) {
    std::fprintf(stderr, "--distinct expects a positive count\n");
    return 2;
  }

  // Deterministic per-session query streams: session k draws from its own
  // generator seeded off (seed, k), so adding sessions never shifts the
  // queries existing sessions run. With --plan-cache the stream repeats a
  // small base set (query i is base[i % distinct]) — the steady-state
  // workload a plan cache exists for.
  std::vector<std::vector<std::string>> streams(sessions);
  for (int s = 0; s < sessions; ++s) {
    orq::QueryGenerator generator(seed + 7919u * static_cast<uint64_t>(s));
    const int base_count =
        plan_cache ? std::min(distinct, queries_per_session)
                   : queries_per_session;
    std::vector<std::string> base;
    for (int q = 0; q < base_count; ++q) {
      base.push_back(orq::RenderSql(generator.Generate()));
    }
    for (int q = 0; q < queries_per_session; ++q) {
      streams[s].push_back(base[static_cast<size_t>(q % base_count)]);
    }
  }

  // Self-host unless --port points at an external server.
  std::unique_ptr<orq::QueryServer> server;
  if (port == 0) {
    auto catalog = std::make_shared<orq::Catalog>();
    orq::Status built = orq::BuildDifftestCatalog(catalog.get(), seed);
    if (!built.ok()) {
      std::fprintf(stderr, "catalog build failed: %s\n",
                   built.ToString().c_str());
      return 2;
    }
    for (const std::string& name : catalog->TableNames()) {
      catalog->GetStats(*catalog->FindTable(name));
    }
    server = std::make_unique<orq::QueryServer>(catalog, server_options);
    orq::Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    port = server->port();
  }

  // All sessions connect first, then start querying together on a latch —
  // the measured window covers query traffic only, not connection setup.
  std::vector<SessionStats> stats(sessions);
  std::vector<orq::Client> clients;
  clients.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    orq::Result<orq::Client> connected = orq::Client::Connect(host, port);
    if (!connected.ok()) {
      std::fprintf(stderr, "session %d connect failed: %s\n", s,
                   connected.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(connected.value()));
  }

  // Cache/prepared setup is part of connection setup, outside the
  // measured window: enable the session plan cache and register the
  // parameterized statement each prepared-mode session will execute.
  const char kPreparedName[] = "loadgen_stmt";
  const char kPreparedSql[] =
      "SELECT COUNT(*) FROM orders WHERE o_custkey < ?";
  if (plan_cache) {
    for (int s = 0; s < sessions; ++s) {
      orq::Status set = clients[static_cast<size_t>(s)].Set("plan_cache",
                                                            "on");
      if (!set.ok()) {
        std::fprintf(stderr, "session %d SET plan_cache failed: %s\n", s,
                     set.ToString().c_str());
        return 1;
      }
      if (prepared) {
        orq::Result<orq::WirePrepared> registered =
            clients[static_cast<size_t>(s)].Prepare(kPreparedName,
                                                    kPreparedSql);
        if (!registered.ok()) {
          std::fprintf(stderr, "session %d PREPARE failed: %s\n", s,
                       registered.status().ToString().c_str());
          return 1;
        }
      }
    }
  }

  std::mutex start_mu;
  std::condition_variable start_cv;
  bool start = false;
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      {
        std::unique_lock<std::mutex> lock(start_mu);
        start_cv.wait(lock, [&] { return start; });
      }
      orq::Client& client = clients[static_cast<size_t>(s)];
      SessionStats& mine = stats[static_cast<size_t>(s)];
      for (int q = 0; q < queries_per_session; ++q) {
        const int64_t t0 = orq::ObsNowNanos();
        // Prepared mode executes the registered statement with a varying
        // key; otherwise the session replays its generated stream.
        orq::Result<orq::WireResult> result =
            prepared
                ? client.ExecutePrepared(
                      kPreparedName, {orq::Value::Int64(1 + q % 50)})
                : client.Query(
                      streams[static_cast<size_t>(s)][static_cast<size_t>(q)]);
        mine.latencies_micros.push_back((orq::ObsNowNanos() - t0) / 1000);
        if (result.ok()) {
          ++mine.ok;
          mine.result_rows += static_cast<int64_t>(result->rows.size());
          mine.rows_produced += result->rows_produced;
        } else {
          // Log the server-minted id so the failure can be pulled back out
          // of the server's history/slow-query log after the run.
          std::fprintf(stderr, "loadgen: session %d query %d [%s]: %s\n", s,
                       q,
                       client.last_query_id().empty()
                           ? "no-id"
                           : client.last_query_id().c_str(),
                       result.status().ToString().c_str());
          switch (result.status().code()) {
            case orq::StatusCode::kCancelled:
            case orq::StatusCode::kDeadlineExceeded:
              ++mine.timeouts;
              break;
            case orq::StatusCode::kUnavailable:
              ++mine.rejected;
              // A rejected connection is still usable; an Unavailable from
              // a dead transport is not — probe and bail if the link died.
              if (!client.Ping().ok()) {
                mine.transport = result.status();
                return;
              }
              break;
            default:
              ++mine.errors;
              break;
          }
        }
      }
    });
  }

  const int64_t wall_start = orq::ObsNowNanos();
  {
    std::lock_guard<std::mutex> lock(start_mu);
    start = true;
  }
  start_cv.notify_all();
  for (std::thread& thread : threads) thread.join();
  const double wall_ms = (orq::ObsNowNanos() - wall_start) / 1e6;

  // Read the server's cache counters before tearing the sessions down.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  if (plan_cache) {
    orq::Result<std::string> metrics = clients[0].Admin("metrics");
    if (metrics.ok()) {
      cache_hits = ParseMetric(*metrics, "plan_cache.hits");
      cache_misses = ParseMetric(*metrics, "plan_cache.misses");
    }
  }
  const double hit_rate =
      cache_hits + cache_misses > 0
          ? 100.0 * static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0.0;

  clients.clear();  // disconnect before the server goes down
  if (server != nullptr) server->Stop();

  SessionStats total;
  std::vector<int64_t> all_latencies;
  for (const SessionStats& s : stats) {
    if (!s.transport.ok()) {
      std::fprintf(stderr, "transport failure: %s\n",
                   s.transport.ToString().c_str());
      return 1;
    }
    total.ok += s.ok;
    total.errors += s.errors;
    total.timeouts += s.timeouts;
    total.rejected += s.rejected;
    total.result_rows += s.result_rows;
    total.rows_produced += s.rows_produced;
    all_latencies.insert(all_latencies.end(), s.latencies_micros.begin(),
                         s.latencies_micros.end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  const int64_t attempted = static_cast<int64_t>(all_latencies.size());
  const double qps =
      wall_ms > 0 ? static_cast<double>(attempted) * 1000.0 / wall_ms : 0.0;
  const double p50 = PercentileMs(all_latencies, 50);
  const double p95 = PercentileMs(all_latencies, 95);
  const double p99 = PercentileMs(all_latencies, 99);

  std::printf(
      "loadgen: sessions=%d queries=%lld ok=%lld error=%lld timeout=%lld "
      "rejected=%lld\n"
      "         wall=%.1f ms  qps=%.1f  p50=%.2f ms  p95=%.2f ms  "
      "p99=%.2f ms\n"
      "         result_rows=%lld rows_produced=%lld\n",
      sessions, static_cast<long long>(attempted),
      static_cast<long long>(total.ok), static_cast<long long>(total.errors),
      static_cast<long long>(total.timeouts),
      static_cast<long long>(total.rejected), wall_ms, qps, p50, p95, p99,
      static_cast<long long>(total.result_rows),
      static_cast<long long>(total.rows_produced));
  if (plan_cache) {
    std::printf("         plan_cache hits=%lld misses=%lld hit_rate=%.1f%%\n",
                static_cast<long long>(cache_hits),
                static_cast<long long>(cache_misses), hit_rate);
  }

  if (!json_path.empty()) {
    std::FILE* file = std::fopen(json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "--json: cannot open %s\n", json_path.c_str());
      return 1;
    }
    const std::string mode =
        prepared ? "loadgen_prepared"
                 : (plan_cache ? "loadgen_cache" : "loadgen_mix");
    std::string line = "{\"name\":";
    orq::AppendJsonString(mode + "/sessions:" + std::to_string(sessions) +
                              "/queries:" +
                              std::to_string(queries_per_session),
                          &line);
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"iterations\":%lld",
                  static_cast<long long>(attempted));
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"wall_ms\":%.6g", wall_ms);
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"threads\":%d",
                  server_options.engine.exec.num_threads);
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"result_rows\":%lld",
                  static_cast<long long>(total.result_rows));
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"rows_produced\":%lld",
                  static_cast<long long>(total.rows_produced));
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"query_errors\":%lld",
                  static_cast<long long>(total.errors));
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"timeouts\":%lld",
                  static_cast<long long>(total.timeouts));
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"rejected\":%lld",
                  static_cast<long long>(total.rejected));
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"qps\":%.6g", qps);
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"p50_ms\":%.6g", p50);
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"p95_ms\":%.6g", p95);
    line += buf;
    std::snprintf(buf, sizeof buf, ",\"p99_ms\":%.6g", p99);
    line += buf;
    if (plan_cache) {
      std::snprintf(buf, sizeof buf, ",\"cache_hits\":%lld",
                    static_cast<long long>(cache_hits));
      line += buf;
      std::snprintf(buf, sizeof buf, ",\"cache_misses\":%lld",
                    static_cast<long long>(cache_misses));
      line += buf;
      std::snprintf(buf, sizeof buf, ",\"hit_rate\":%.6g", hit_rate);
      line += buf;
    }
    line += ",\"error\":false}";
    std::fprintf(file, "%s\n", line.c_str());
    std::fclose(file);
  }

  if (min_hit_rate >= 0.0 && hit_rate < min_hit_rate) {
    std::fprintf(stderr,
                 "plan-cache hit rate %.1f%% is below the --min-hit-rate "
                 "bar of %.1f%%\n",
                 hit_rate, min_hit_rate);
    return 1;
  }
  return 0;
}
