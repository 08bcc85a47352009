// The network query daemon: loads a generated catalog (difftest-shaped or
// TPC-H), starts the QueryServer, and serves wire-protocol clients until
// SIGINT/SIGTERM (or --runtime-ms elapses).
//
// Usage:
//   orq_serve [--host H] [--port N] [--port-file PATH]
//             [--metrics-port N] [--metrics-port-file PATH]
//             [--catalog difftest|tpch] [--seed N] [--sf X]
//             [--workers N] [--max-concurrent N] [--max-queued N]
//             [--timeout-ms N] [--threads N] [--runtime-ms N]
//             [--slow-query-ms N] [--history N]
//             [--config full|correlated_only|no_groupby_opts|no_segment_apply]
//
// --port 0 (the default) binds an ephemeral port; --port-file writes the
// bound port to a file so scripts can discover it. --timeout-ms is the
// default per-query deadline new sessions start with (SET timeout_ms
// overrides per session); --threads the default engine worker count.
// --workers caps how many queries execute at once (--max-concurrent is
// clamped to it); each admitted query runs on its connection's thread.
// --metrics-port exposes a plain-HTTP GET /metrics endpoint (Prometheus
// text format; 0 = ephemeral, discoverable via --metrics-port-file).
// --slow-query-ms sets the default slow-query capture threshold and
// --history the completed-query ring capacity behind the history admin
// command.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "difftest/dataset.h"
#include "obs/stats.h"
#include "server/server.h"
#include "tpch/tpch_gen.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: orq_serve [--host H] [--port N] [--port-file PATH]\n"
      "                 [--metrics-port N] [--metrics-port-file PATH]\n"
      "                 [--catalog difftest|tpch] [--seed N] [--sf X]\n"
      "                 [--workers N] [--max-concurrent N] [--max-queued N]\n"
      "                 [--timeout-ms N] [--threads N] [--runtime-ms N]\n"
      "                 [--slow-query-ms N] [--history N]\n"
      "                 [--config full|correlated_only|no_groupby_opts|"
      "no_segment_apply]\n");
  return 2;
}

bool PickConfig(const char* name, orq::EngineOptions* out) {
  if (std::strcmp(name, "full") == 0) {
    *out = orq::EngineOptions::Full();
  } else if (std::strcmp(name, "correlated_only") == 0) {
    *out = orq::EngineOptions::CorrelatedOnly();
  } else if (std::strcmp(name, "no_groupby_opts") == 0) {
    *out = orq::EngineOptions::NoGroupByOptimizations();
  } else if (std::strcmp(name, "no_segment_apply") == 0) {
    *out = orq::EngineOptions::NoSegmentApply();
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  orq::ServerOptions options;
  std::string catalog_kind = "difftest";
  std::string port_file;
  std::string metrics_port_file;
  uint64_t seed = 20260806;
  double scale_factor = 0.01;
  long long runtime_ms = 0;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      options.host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      options.port = std::atoi(next("--port"));
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = next("--port-file");
    } else if (std::strcmp(argv[i], "--metrics-port") == 0) {
      options.metrics_port = std::atoi(next("--metrics-port"));
    } else if (std::strcmp(argv[i], "--metrics-port-file") == 0) {
      metrics_port_file = next("--metrics-port-file");
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0) {
      options.default_slow_query_ms = std::atoll(next("--slow-query-ms"));
    } else if (std::strcmp(argv[i], "--history") == 0) {
      options.query_store_capacity =
          static_cast<size_t>(std::atoll(next("--history")));
    } else if (std::strcmp(argv[i], "--catalog") == 0) {
      catalog_kind = next("--catalog");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--sf") == 0) {
      scale_factor = std::atof(next("--sf"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      options.worker_threads = std::atoi(next("--workers"));
    } else if (std::strcmp(argv[i], "--max-concurrent") == 0) {
      options.admission.max_concurrent = std::atoi(next("--max-concurrent"));
    } else if (std::strcmp(argv[i], "--max-queued") == 0) {
      options.admission.max_queued = std::atoi(next("--max-queued"));
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      options.default_timeout_ms = std::atoll(next("--timeout-ms"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      options.engine.exec.num_threads = std::atoi(next("--threads"));
    } else if (std::strcmp(argv[i], "--runtime-ms") == 0) {
      runtime_ms = std::atoll(next("--runtime-ms"));
    } else if (std::strcmp(argv[i], "--config") == 0) {
      const char* name = next("--config");
      if (!PickConfig(name, &options.engine)) {
        std::fprintf(stderr, "unknown config %s\n", name);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return Usage();
    }
  }
  if (options.worker_threads < 1 || options.admission.max_concurrent < 1 ||
      options.admission.max_queued < 0) {
    std::fprintf(stderr, "worker/admission counts out of range\n");
    return 2;
  }

  auto catalog = std::make_shared<orq::Catalog>();
  if (catalog_kind == "difftest") {
    orq::Status built = orq::BuildDifftestCatalog(catalog.get(), seed);
    if (!built.ok()) {
      std::fprintf(stderr, "catalog build failed: %s\n",
                   built.ToString().c_str());
      return 2;
    }
  } else if (catalog_kind == "tpch") {
    orq::TpchGenOptions gen;
    gen.scale_factor = scale_factor;
    orq::Status built = orq::GenerateTpch(catalog.get(), gen);
    if (!built.ok()) {
      std::fprintf(stderr, "TPC-H generation failed: %s\n",
                   built.ToString().c_str());
      return 2;
    }
  } else {
    std::fprintf(stderr, "--catalog expects difftest|tpch, got %s\n",
                 catalog_kind.c_str());
    return 2;
  }
  // Warm the statistics cache so the first queries do not all pile into
  // the lazy stats computation.
  for (const std::string& name : catalog->TableNames()) {
    catalog->GetStats(*catalog->FindTable(name));
  }

  orq::QueryServer server(catalog, options);
  orq::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "orq_serve: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* file = std::fopen(port_file.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "orq_serve: cannot open %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(file, "%d\n", server.port());
    std::fclose(file);
  }
  if (!metrics_port_file.empty()) {
    std::FILE* file = std::fopen(metrics_port_file.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "orq_serve: cannot open %s\n",
                   metrics_port_file.c_str());
      return 1;
    }
    std::fprintf(file, "%d\n", server.metrics_port());
    std::fclose(file);
  }
  std::printf("orq_serve: listening on %s:%d (catalog=%s, workers=%d, "
              "max_concurrent=%d, max_queued=%d)\n",
              options.host.c_str(), server.port(), catalog_kind.c_str(),
              options.worker_threads, options.admission.max_concurrent,
              options.admission.max_queued);
  if (server.metrics_port() >= 0) {
    std::printf("orq_serve: metrics on http://%s:%d/metrics\n",
                options.host.c_str(), server.metrics_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  const int64_t deadline_nanos =
      runtime_ms > 0 ? orq::ObsNowNanos() + runtime_ms * 1000000 : 0;
  while (g_stop_requested == 0) {
    if (deadline_nanos > 0 && orq::ObsNowNanos() >= deadline_nanos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("orq_serve: shutting down\n%s", server.MetricsText().c_str());
  server.Stop();
  return 0;
}
