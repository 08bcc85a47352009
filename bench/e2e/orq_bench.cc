// orq_bench: the end-to-end benchmark of the ORQ query service. One process
// self-hosts QueryServer (default engine options, two workers, two
// admission slots), drives it over real TCP with orq::Client, checks every
// answer against a reference computed before set-up, and prints every
// metric by name with its unit. README.md has the metric glossary and the
// reason for each workload.
//
// Usage:
//   orq_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out FILE] [--spans-out FILE] [--sha SHA]
//             [--benchmark-json FILE]
//   orq_bench --workload NAME --check-only [--seed N]
//   orq_bench --smoke [--benchmark-json FILE]
//   orq_bench --compare A.jsonl B.jsonl [--benchmark-json FILE]
//   orq_bench --freeze-pool FILE
//
// Every mode that runs a generated workload reads its frozen query pool
// from --pool (default bench/e2e/subquery_pool.tsv, relative to the
// repository root, where run.py runs it).
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that gives the per-layer metrics. The last stdout line is one
// JSON object {"correct","attempted","failed","metrics"} holding exactly
// the BENCHMARK.json metrics of that mode; every metric, including the
// per-query and per-operator breakdowns, is also printed as a
// "<workload> <metric> <value> <unit>" line.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compare.h"
#include "layer_pass.h"
#include "obs/json.h"
#include "obs/stats.h"
#include "report.h"
#include "span_log.h"
#include "wire_load.h"
#include "workloads.h"

#ifndef ORQ_BENCH_BUILD_TYPE
#define ORQ_BENCH_BUILD_TYPE "unknown"
#endif

namespace orq::bench {
namespace {

/// p99 needs at least ten samples beyond it.
constexpr int64_t kMinSamples = 1000;
/// Cold set-ups come in two rounds (see RunWorkload); each round runs at
/// least kSetupsPerRound of them and keeps going until it has spent
/// kSetupRoundSeconds or run kMaxSetupsPerRound.
constexpr int kSetupsPerRound = 3;
constexpr int kMaxSetupsPerRound = 40;
constexpr double kSetupRoundSeconds = 0.75;
constexpr double kWarmupSeconds = 3.0;
/// Host probe rounds per thread at each end of a run (see ProbeHost).
constexpr int kProbeRounds = 6;
/// The probe's median round on the machine README.md describes, in a quiet
/// period: host-normalized timings are expressed at this host speed.
constexpr double kReferenceHostMs = 30.0;
constexpr uint64_t kWarmupSalt = 0x77a4u;
constexpr uint64_t kWindowSalt = 0x3b1du;

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 20261016;
  double seconds = 20.0;
  bool trace = false;
  double warmup_s = kWarmupSeconds;
  int setups = kSetupsPerRound;
  std::string pool_path = "bench/e2e/subquery_pool.tsv";
  int limit = 0;  // positive: only the first `limit` queries
  bool enforce_samples = true;
  std::string spans_out;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  /// Median host probe round (ProbeHost) over both ends of the run.
  double host_ms = 0.0;
};

/// The metric names and units BENCHMARK.json fixes, per mode.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

Result<BenchmarkSpec> LoadSpec(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  std::string text;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, file)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(file);
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error)) {
    return Status::InvalidArgument(path + ": " + error);
  }
  BenchmarkSpec spec;
  auto list = [&](const char* key, std::vector<Metric>* out) {
    if (const JsonValue* items = doc.Find(key)) {
      for (const JsonValue& item : items->array) {
        out->push_back({item.StringOr("name", ""), 0.0,
                        item.StringOr("unit", "")});
      }
    }
  };
  list("end_to_end", &spec.end_to_end);
  list("per_layer", &spec.per_layer);
  if (const JsonValue* items = doc.Find("workloads")) {
    for (const JsonValue& item : items->array) {
      spec.workloads.push_back(item.StringOr("name", ""));
    }
  }
  if (spec.end_to_end.empty() || spec.per_layer.empty() ||
      spec.workloads.empty()) {
    return Status::InvalidArgument(path + ": missing metrics or workloads");
  }
  return spec;
}

/// Wall milliseconds of one round of the host probe: a fixed mix of the
/// kinds of work the engine does (a hash-table build and probe, a sort, a
/// chain of dependent multiply-adds), written here so that no change to
/// the library moves it.
double ProbeRoundMillis(uint64_t seed) {
  const int64_t start = ObsNowNanos();
  uint64_t state = seed;
  std::unordered_map<uint64_t, uint64_t> table;
  for (uint64_t i = 0; i < 65536; ++i) {
    table.emplace(SplitMix64(&state) & 0xffffff, i);
  }
  uint64_t found = 0;
  for (int i = 0; i < 262144; ++i) {
    found += table.count(SplitMix64(&state) & 0xffffff);
  }
  std::vector<uint64_t> keys(131072);
  for (uint64_t& key : keys) key = SplitMix64(&state);
  std::sort(keys.begin(), keys.end());
  uint64_t x = found + keys[keys.size() / 2];
  for (int i = 0; i < 4000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  asm volatile("" : : "r"(x));  // keeps the work from being folded away
  return static_cast<double>(ObsNowNanos() - start) / 1e6;
}

/// Runs kProbeRounds probe rounds on kServerSlots threads at once, the
/// server's parallelism, and appends each round's wall milliseconds. The
/// rounds run in a child process, so the probe's memory never counts in
/// this process's `rss_peak_mb`. Call it only while no other thread of
/// this process runs.
Status ProbeHost(std::vector<double>* millis) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  std::fflush(stdout);
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (child == 0) {
    close(fds[0]);
    std::vector<double> rounds(kServerSlots * kProbeRounds);
    std::vector<std::thread> threads;
    for (int t = 0; t < kServerSlots; ++t) {
      threads.emplace_back([&rounds, t] {
        for (int round = 0; round < kProbeRounds; ++round) {
          const int i = t * kProbeRounds + round;
          rounds[static_cast<size_t>(i)] =
              ProbeRoundMillis(static_cast<uint64_t>(i));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const size_t bytes = rounds.size() * sizeof(double);
    const bool sent =
        write(fds[1], rounds.data(), bytes) == static_cast<ssize_t>(bytes);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::vector<double> rounds(kServerSlots * kProbeRounds);
  const size_t bytes = rounds.size() * sizeof(double);
  size_t got = 0;
  for (ssize_t n; got < bytes &&
                  (n = read(fds[0], reinterpret_cast<char*>(rounds.data()) + got,
                            bytes - got)) > 0;) {
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (got != bytes || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("the host probe failed");
  }
  millis->insert(millis->end(), rounds.begin(), rounds.end());
  return Status::OK();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<double> Millis(const std::vector<int64_t>& nanos) {
  std::vector<double> out;
  out.reserve(nanos.size());
  for (int64_t n : nanos) out.push_back(static_cast<double>(n) / 1e6);
  return out;
}

std::vector<double> LatencyMillis(const std::vector<Sample>& samples) {
  std::vector<int64_t> nanos;
  nanos.reserve(samples.size());
  for (const Sample& sample : samples) nanos.push_back(sample.latency_nanos);
  return Millis(nanos);
}

struct SubWindowMedians {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double qps = 0.0;
  double cpu_ms_per_query = 0.0;
};

/// Each sub-window takes the replies that arrived in it. p99 is a median
/// over sub-windows only when every sub-window holds the kMinSamples a
/// p99 needs; otherwise it is the whole window's.
SubWindowMedians MediansOverSubWindows(const WindowResult& window) {
  std::vector<double> p50_ms, p99_ms, qps, cpu_ms;
  int64_t fewest = static_cast<int64_t>(window.samples.size());
  const size_t windows = window.bound_nanos.size() - 1;
  for (size_t k = 0; k < windows; ++k) {
    const int64_t from = window.bound_nanos[k];
    const int64_t to = window.bound_nanos[k + 1];
    std::vector<Sample> in;
    for (const Sample& sample : window.samples) {
      if (sample.done_nanos < from ||
          (sample.done_nanos >= to && k + 1 < windows)) {
        continue;
      }
      in.push_back(sample);
    }
    const int64_t completed = window.completed_in[k];
    fewest = std::min(fewest, static_cast<int64_t>(in.size()));
    const std::vector<double> latency_ms = LatencyMillis(in);
    p50_ms.push_back(CentralMean(latency_ms));
    p99_ms.push_back(Percentile(latency_ms, 99));
    qps.push_back(static_cast<double>(completed) /
                  (static_cast<double>(to - from) / 1e9));
    cpu_ms.push_back((window.cpu_s[k + 1] - window.cpu_s[k]) * 1e3 /
                     static_cast<double>(std::max<int64_t>(completed, 1)));
  }
  return {Median(p50_ms),
          fewest >= kMinSamples
              ? Median(p99_ms)
              : Percentile(LatencyMillis(window.samples), 99),
          Median(qps), Median(cpu_ms)};
}

int64_t Counter(const JsonValue& metrics, const char* name) {
  const JsonValue* engine = metrics.Find("engine");
  const JsonValue* counters =
      engine != nullptr ? engine->Find("counters") : nullptr;
  return counters != nullptr
             ? static_cast<int64_t>(counters->NumberOr(name, 0.0))
             : 0;
}

/// Per-bucket counts of one `\metrics json` histogram, keyed by upper
/// bound ("inf" as -1).
std::map<int64_t, int64_t> Buckets(const JsonValue& metrics,
                                   const char* name) {
  std::map<int64_t, int64_t> out;
  const JsonValue* engine = metrics.Find("engine");
  const JsonValue* histograms =
      engine != nullptr ? engine->Find("histograms") : nullptr;
  if (histograms == nullptr) return out;
  for (const JsonValue& histogram : histograms->array) {
    if (histogram.StringOr("name", "") != name) continue;
    if (const JsonValue* buckets = histogram.Find("buckets")) {
      for (const JsonValue& bucket : buckets->array) {
        const JsonValue* le = bucket.Find("le");
        const int64_t bound =
            le != nullptr && le->is_number() ? static_cast<int64_t>(le->number)
                                             : -1;
        out[bound] += static_cast<int64_t>(bucket.NumberOr("count", 0.0));
      }
    }
  }
  return out;
}

Result<JsonValue> AdminJson(WireLoad* load, const std::string& command) {
  ORQ_ASSIGN_OR_RETURN(std::string text, load->Admin(command));
  JsonValue doc;
  std::string error;
  if (!ParseJson(text, &doc, &error)) {
    return Status::Internal("\\" + command + ": " + error);
  }
  return doc;
}

/// Server-side metrics of the traced window: `\history` joined with the
/// client's samples by query id, and `\metrics json` diffed across it.
Status AddServerMetrics(const WindowResult& window, const JsonValue& before,
                        const JsonValue& after, const JsonValue& history,
                        std::vector<Metric>* out) {
  std::map<std::string, int64_t> round_trip_by_id;
  for (const RecentQuery& recent : window.recent) {
    round_trip_by_id[recent.query_id] = recent.round_trip_nanos;
  }
  std::vector<double> round_trip_us;
  for (const Sample& sample : window.samples) {
    round_trip_us.push_back(static_cast<double>(sample.round_trip_nanos) /
                            1e3);
  }
  std::vector<double> wire_us, queue_wait_us, compile_hit_us,
      compile_miss_us;
  double engine_nanos = 0.0;
  if (const JsonValue* records = history.Find("queries")) {
    for (const JsonValue& record : records->array) {
      auto it = round_trip_by_id.find(record.StringOr("query_id", ""));
      const JsonValue* profile = record.Find("profile");
      if (it == round_trip_by_id.end() || profile == nullptr) continue;
      const double wall_nanos = record.NumberOr("wall_micros", 0.0) * 1e3;
      const double total_nanos = profile->NumberOr("total_nanos", 0.0);
      double compile_nanos = total_nanos;
      if (const JsonValue* phases = profile->Find("phases")) {
        for (const JsonValue& phase : phases->array) {
          const std::string name = phase.StringOr("phase", "");
          if (name == "physical_build" || name == "execute") {
            compile_nanos -= phase.NumberOr("wall_nanos", 0.0);
          }
        }
      }
      wire_us.push_back((static_cast<double>(it->second) - wall_nanos) / 1e3);
      queue_wait_us.push_back((wall_nanos - total_nanos) / 1e3);
      engine_nanos += total_nanos;
      (record.StringOr("cache", "") == "hit" ? compile_hit_us
                                             : compile_miss_us)
          .push_back(compile_nanos / 1e3);
    }
  }
  if (wire_us.empty()) {
    return Status::Internal("no \\history record matched a client sample");
  }

  const int64_t hits = Counter(after, "plan_cache.hits") -
                       Counter(before, "plan_cache.hits");
  const int64_t misses = Counter(after, "plan_cache.misses") -
                         Counter(before, "plan_cache.misses");
  std::map<int64_t, int64_t> depth =
      Buckets(after, "server.admission_queue_depth");
  for (const auto& [bound, count] :
       Buckets(before, "server.admission_queue_depth")) {
    depth[bound] -= count;
  }
  int64_t observed = 0;
  for (const auto& [bound, count] : depth) observed += count;
  // Upper bound of the power-of-two bucket holding the 99th percentile.
  double depth_p99 = 0.0;
  int64_t seen = 0;
  for (auto it = depth.upper_bound(-1); it != depth.end(); ++it) {
    seen += it->second;
    if (seen * 100 >= observed * 99) {
      depth_p99 = static_cast<double>(it->first);
      break;
    }
  }

  out->push_back({"engine.plan_cache_hit_ratio",
                  hits + misses > 0 ? static_cast<double>(hits) /
                                          static_cast<double>(hits + misses)
                                    : 0.0,
                  "ratio"});
  out->push_back({"engine.plan_cache_hits", static_cast<double>(hits),
                  "count"});
  out->push_back({"engine.plan_cache_misses", static_cast<double>(misses),
                  "count"});
  out->push_back({"engine.compile_us.hit", Median(compile_hit_us), "us"});
  out->push_back({"engine.compile_us.miss", Median(compile_miss_us), "us"});
  out->push_back({"server.round_trip_us", Median(round_trip_us), "us"});
  out->push_back({"server.wire_us", Median(wire_us), "us"});
  out->push_back({"server.queue_wait_us", Median(queue_wait_us), "us"});
  out->push_back({"server.admission_queue_depth_p99", depth_p99, "count"});
  out->push_back({"server.rejected",
                  static_cast<double>(
                      Counter(after, "server.queries_rejected") -
                      Counter(before, "server.queries_rejected")),
                  "count"});
  // Share of the admission slots' time the engine was busy: the open-loop
  // rate must leave it at or under half.
  out->push_back(
      {"server.admission_utilization_pct",
       100.0 * engine_nanos / static_cast<double>(wire_us.size()) / 1e9 *
           static_cast<double>(window.completed()) / window.elapsed_s() /
           kServerSlots,
       "%"});
  out->push_back({"server.timed_out",
                  static_cast<double>(
                      Counter(after, "server.queries_timed_out") -
                      Counter(before, "server.queries_timed_out")),
                  "count"});
  return Status::OK();
}

Result<Report> RunWorkload(const RunConfig& config) {
  const Workload& workload = *config.workload;
  Report report;
  // The host probe runs at both ends of the run, while no server exists,
  // so nothing the measured build does can slow it.
  std::vector<double> probe_ms;
  ORQ_RETURN_IF_ERROR(ProbeHost(&probe_ms));

  // Reference answers come first, outside every timed interval.
  std::vector<BenchQuery> queries;
  const int64_t prepare_start = ObsNowNanos();
  {
    CatalogTiming unused;
    ORQ_ASSIGN_OR_RETURN(std::shared_ptr<Catalog> catalog,
                         BuildCatalog(workload.catalog, &unused));
    ORQ_ASSIGN_OR_RETURN(queries,
                         PrepareQueries(workload, catalog.get(),
                                        config.pool_path, config.limit));
  }
  const int64_t prepare_end = ObsNowNanos();

  // Cold set-ups, each torn down before the next; the median is reported.
  // On a shared host a burst of interference from outside the process
  // can slow everything for a second or two, so the set-ups come in two
  // rounds, one before the warm-up (its last set-up serves the windows)
  // and one after the measured window, and a burst hits one round, not
  // every sample.
  std::vector<double> setup_s, generate_s, stats_s;
  std::unique_ptr<WireLoad> load;
  auto set_up_round = [&]() -> Status {
    double spent_s = 0.0;
    for (int i = 0; i < config.setups || (spent_s < kSetupRoundSeconds &&
                                          i < kMaxSetupsPerRound);
         ++i) {
      load.reset();
      CatalogTiming timing;
      const int64_t start = ObsNowNanos();
      ORQ_ASSIGN_OR_RETURN(
          load, WireLoad::SetUp(workload, config.seed, &queries, &timing));
      setup_s.push_back(static_cast<double>(ObsNowNanos() - start) / 1e9);
      spent_s += setup_s.back();
      generate_s.push_back(timing.generate_s);
      stats_s.push_back(timing.stats_s);
    }
    return Status::OK();
  };
  ORQ_RETURN_IF_ERROR(set_up_round());
  if (workload.plan_cache) ORQ_RETURN_IF_ERROR(load->PrepareSwaps());

  // Warm-up (stats, allocator, plan caches); its samples are discarded but
  // its failures still count.
  const WindowResult warmup =
      load->Run(config.warmup_s, config.seed ^ kWarmupSalt);
  report.attempted += warmup.attempted;
  report.failed += warmup.failed();
  report.correct = warmup.mismatches == 0;

  std::vector<Metric>& m = report.metrics;
  m.push_back({"prepare_s",
               static_cast<double>(prepare_end - prepare_start) / 1e9, "s"});
  const double window_s = config.trace ? config.seconds / 2 : config.seconds;
  JsonValue metrics_before;
  if (config.trace) {
    ORQ_ASSIGN_OR_RETURN(metrics_before, AdminJson(load.get(), "metrics json"));
  }
  const WindowResult window =
      load->Run(window_s, config.seed ^ kWindowSalt,
                config.enforce_samples && !config.trace ? kMinSamples : 0);
  report.attempted += window.attempted;
  report.failed += window.failed();
  report.correct = report.correct && window.mismatches == 0;
  if (config.enforce_samples && !config.trace &&
      window.attempted < kMinSamples) {
    return Status::Internal(
        "the window collected " + std::to_string(window.attempted) +
        " samples; p99 needs at least " + std::to_string(kMinSamples));
  }

  if (!config.trace) {
    load.reset();
    ORQ_RETURN_IF_ERROR(set_up_round());
    load.reset();
    ORQ_RETURN_IF_ERROR(ProbeHost(&probe_ms));
    report.host_ms = Median(probe_ms);
    // Timings at the reference host speed: on a shared host, speed drifts
    // by tens of percent over minutes, far more than a regression bound.
    // A closed loop's throughput is the rate the host works at, so it
    // scales too; an open loop's is the arrival rate, so it does not.
    const double slowdown = report.host_ms / kReferenceHostMs;
    const SubWindowMedians sub = MediansOverSubWindows(window);
    m.push_back({"latency_p50_ms", sub.p50_ms / slowdown, "ms"});
    m.push_back({"latency_p99_ms", sub.p99_ms / slowdown, "ms"});
    m.push_back({"throughput_qps",
                 workload.open_loop ? sub.qps : sub.qps * slowdown, "1/s"});
    m.push_back({"cpu_ms_per_query", sub.cpu_ms_per_query / slowdown, "ms"});
    m.push_back({"setup_s", Median(setup_s) / slowdown, "s"});
    m.push_back({"raw.latency_p50_ms", sub.p50_ms, "ms"});
    m.push_back({"raw.latency_p99_ms", sub.p99_ms, "ms"});
    m.push_back({"raw.throughput_qps", sub.qps, "1/s"});
    m.push_back({"raw.cpu_ms_per_query", sub.cpu_ms_per_query, "ms"});
    m.push_back({"raw.setup_s", Median(setup_s), "s"});
    m.push_back({"setups", static_cast<double>(setup_s.size()), "count"});
    m.push_back({"failed_ratio",
                 static_cast<double>(window.failed()) /
                     static_cast<double>(std::max<int64_t>(window.attempted, 1)),
                 "ratio"});
    m.push_back({"samples", static_cast<double>(window.attempted), "count"});
    if (workload.open_loop) {
      m.push_back({"gen_lag_p99_ms", Percentile(Millis(window.lag_nanos), 99),
                   "ms"});
    }
    if (workload.plan_cache) {
      m.push_back({"catalog_swaps", static_cast<double>(window.swaps),
                   "count"});
    }
    m.push_back({"rss_peak_mb", PeakRssMb(), "MB"});
    return report;
  }

  ORQ_ASSIGN_OR_RETURN(JsonValue history, AdminJson(load.get(), "history 256"));
  ORQ_ASSIGN_OR_RETURN(JsonValue metrics_after,
                       AdminJson(load.get(), "metrics json"));
  ORQ_RETURN_IF_ERROR(
      AddServerMetrics(window, metrics_before, metrics_after, history, &m));
  std::shared_ptr<Catalog> catalog = load->catalog();
  load.reset();

  SpanLog log;
  ORQ_ASSIGN_OR_RETURN(LayerPassResult pass,
                       RunLayerPass(workload, catalog.get(), queries,
                                    config.seconds - window_s, &log));
  ORQ_RETURN_IF_ERROR(set_up_round());
  load.reset();
  ORQ_RETURN_IF_ERROR(ProbeHost(&probe_ms));
  report.host_ms = Median(probe_ms);
  report.attempted += pass.executions;
  report.failed += pass.mismatches;
  report.correct =
      report.correct && pass.mismatches == 0 && pass.attributed();
  m.insert(m.end(), pass.metrics.begin(), pass.metrics.end());
  m.push_back({"catalog.generate_s", Median(generate_s), "s"});
  m.push_back({"catalog.stats_s", Median(stats_s), "s"});
  m.push_back({"bench.samples", static_cast<double>(window.attempted),
               "count"});
  m.push_back({"bench.gen_lag_p99_ms", Percentile(Millis(window.lag_nanos), 99),
               "ms"});
  m.push_back({"bench.layer_executions", static_cast<double>(pass.executions),
               "count"});
  m.push_back({"bench.unattributed_executions",
               static_cast<double>(pass.unattributed), "count"});
  m.push_back({"bench.unattributed_pct", pass.unattributed_pct, "%"});
  m.insert(m.end(), pass.extras.begin(), pass.extras.end());
  if (!config.spans_out.empty()) {
    ORQ_RETURN_IF_ERROR(log.WriteJsonLines(config.spans_out));
  }
  return report;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// nproc, compiler, build type, git sha, seed, window and host speed: every
/// header and result file carries them, so runs from different machines or
/// builds are never compared silently.
std::vector<std::pair<std::string, std::string>> Stamp(
    const RunConfig& config, const Report& report, const std::string& sha) {
  char window[64];
  std::snprintf(window, sizeof window, "%g", config.seconds);
  char warmup[64];
  std::snprintf(warmup, sizeof warmup, "%g", config.warmup_s);
  char host[64];
  std::snprintf(host, sizeof host, "%.2f", report.host_ms);
  return {{"workload", config.workload->name},
          {"trace", config.trace ? "1" : "0"},
          {"seed", std::to_string(config.seed)},
          {"window_s", window},
          {"warmup_s", warmup},
          {"nproc", std::to_string(std::thread::hardware_concurrency())},
          {"compiler", Compiler()},
          {"build_type", ORQ_BENCH_BUILD_TYPE},
          {"git_sha", sha},
          {"host_ms", host}};
}

/// The result object: exactly the BENCHMARK.json metrics of this mode.
Result<std::string> ResultJson(const Report& report,
                               const std::vector<Metric>& wanted) {
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < wanted.size(); ++i) {
    const Metric* found = nullptr;
    for (const Metric& metric : report.metrics) {
      if (metric.name == wanted[i].name) found = &metric;
    }
    if (found == nullptr) {
      return Status::Internal("metric " + wanted[i].name + " not measured");
    }
    if (found->unit != wanted[i].unit) {
      return Status::Internal("metric " + wanted[i].name + " is in " +
                              found->unit + ", BENCHMARK.json says " +
                              wanted[i].unit);
    }
    if (i > 0) out += ",";
    AppendJsonString(found->name, &out);
    out += ":{\"value\":" + FullDigits(found->value) + ",\"unit\":";
    AppendJsonString(found->unit, &out);
    out += "}";
  }
  out += "}}";
  return out;
}

/// Prints the stamp, every metric line and the result object (last line),
/// and writes the result file when asked.
Status Emit(const RunConfig& config, const Report& report,
            const BenchmarkSpec& spec, const std::string& sha,
            const std::string& out_path) {
  const auto stamp = Stamp(config, report, sha);
  ORQ_ASSIGN_OR_RETURN(
      std::string result,
      ResultJson(report, config.trace ? spec.per_layer : spec.end_to_end));
  for (const auto& [key, value] : stamp) {
    std::printf("# %s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& metric : report.metrics) {
    std::printf("%s %s %.6g %s\n", config.workload->name, metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  if (!out_path.empty()) {
    std::string file_text = "{\"stamp\":{";
    for (size_t i = 0; i < stamp.size(); ++i) {
      if (i > 0) file_text += ",";
      AppendJsonString(stamp[i].first, &file_text);
      file_text += ":";
      AppendJsonString(stamp[i].second, &file_text);
    }
    file_text += "},\"lines\":[";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
      if (i > 0) file_text += ",";
      file_text += "{\"name\":";
      AppendJsonString(report.metrics[i].name, &file_text);
      file_text += ",\"value\":" + FullDigits(report.metrics[i].value) +
                   ",\"unit\":";
      AppendJsonString(report.metrics[i].unit, &file_text);
      file_text += "}";
    }
    file_text += "],\"result\":" + result + "}\n";
    std::FILE* file = std::fopen(out_path.c_str(), "w");
    if (file == nullptr) return Status::Internal("cannot open " + out_path);
    std::fputs(file_text.c_str(), file);
    if (std::fclose(file) != 0) {
      return Status::Internal("cannot write " + out_path);
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return Status::OK();
}

/// Candidates --check-only draws from the generator seeded with --seed.
constexpr int kSeededCandidates = 300;

/// --check-only: reference answers, one set-up, every query once. A
/// generated workload also checks a pool drawn from --seed, so the check
/// covers queries no earlier run has seen.
int CheckOnly(const RunConfig& config) {
  const Workload& workload = *config.workload;
  CatalogTiming timing;
  Result<std::shared_ptr<Catalog>> catalog =
      BuildCatalog(workload.catalog, &timing);
  Result<std::vector<BenchQuery>> prepared =
      catalog.ok() ? PrepareQueries(workload, catalog->get(),
                                    config.pool_path, config.limit)
                   : Result<std::vector<BenchQuery>>(catalog.status());
  if (prepared.ok() && workload.catalog == CatalogKind::kDifftest) {
    Result<std::vector<BenchQuery>> seeded =
        SeededPool(catalog->get(), config.seed, kSeededCandidates);
    if (seeded.ok()) {
      std::printf("%s check: %zu queries drawn from seed %llu\n",
                  workload.name, seeded->size(),
                  static_cast<unsigned long long>(config.seed));
      prepared->insert(prepared->end(), seeded->begin(), seeded->end());
    } else {
      prepared = seeded.status();
    }
  }
  if (!prepared.ok()) {
    std::fprintf(stderr, "orq_bench: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  const std::vector<BenchQuery> queries = std::move(prepared.value());
  Result<std::unique_ptr<WireLoad>> load =
      WireLoad::SetUp(workload, config.seed, &queries, &timing);
  if (!load.ok()) {
    std::fprintf(stderr, "orq_bench: %s\n", load.status().ToString().c_str());
    return 1;
  }
  const WindowResult checked = (*load)->RunEachOnce();
  std::printf("%s check: %lld queries, %lld failed, %lld mismatched\n",
              workload.name, static_cast<long long>(checked.attempted),
              static_cast<long long>(checked.failed()),
              static_cast<long long>(checked.mismatches));
  return checked.failed() == 0 && checked.attempted ==
                                      static_cast<int64_t>(queries.size())
             ? 0
             : 1;
}

/// --smoke: every workload in both modes on one-second windows with small
/// pools. Each BENCHMARK.json metric must come out and nothing may fail.
int Smoke(const BenchmarkSpec& spec, const std::string& pool_path) {
  int bad = 0;
  for (const std::string& name : spec.workloads) {
    const Workload* workload = FindWorkload(name);
    if (workload == nullptr) {
      std::fprintf(stderr, "smoke: BENCHMARK.json names unknown workload %s\n",
                   name.c_str());
      ++bad;
      continue;
    }
    for (bool trace : {false, true}) {
      RunConfig config;
      config.workload = workload;
      config.seconds = 1.0;
      config.trace = trace;
      config.warmup_s = 0.2;
      config.setups = 1;
      config.pool_path = pool_path;
      config.limit = workload->catalog == CatalogKind::kDifftest ? 24 : 0;
      config.enforce_samples = false;
      Result<Report> report = RunWorkload(config);
      Status emitted = report.ok() ? Emit(config, *report, spec, "smoke", "")
                                   : report.status();
      if (!emitted.ok() || report->failed != 0 || !report->correct) {
        std::fprintf(stderr, "smoke: %s trace=%d: %s\n", name.c_str(),
                     trace ? 1 : 0,
                     emitted.ok() ? "failed queries or wrong answers"
                                  : emitted.ToString().c_str());
        ++bad;
      }
    }
  }
  std::printf("smoke: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: orq_bench --workload NAME [--seed N] [--seconds S]\n"
      "                 [--trace 0|1] [--out FILE] [--spans-out FILE]\n"
      "                 [--sha SHA] [--benchmark-json FILE] [--pool FILE]\n"
      "                 [--check-only]\n"
      "       orq_bench --smoke [--benchmark-json FILE] [--pool FILE]\n"
      "       orq_bench --compare A.jsonl B.jsonl [--benchmark-json FILE]\n"
      "       orq_bench --freeze-pool FILE\n");
  return 2;
}

}  // namespace
}  // namespace orq::bench

int main(int argc, char** argv) {
  using namespace orq::bench;
  RunConfig config;
  std::string workload_name;
  std::string out_path;
  std::string sha = "unknown";
  std::string spec_path = "BENCHMARK.json";
  std::string compare_a, compare_b;
  std::string freeze_path;
  bool check_only = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const std::string arg = argv[i];
    if (arg == "--workload") {
      workload_name = next("--workload");
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(next("--seconds"));
    } else if (arg == "--trace") {
      config.trace = std::strcmp(next("--trace"), "0") != 0;
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--spans-out") {
      config.spans_out = next("--spans-out");
    } else if (arg == "--sha") {
      sha = next("--sha");
    } else if (arg == "--benchmark-json") {
      spec_path = next("--benchmark-json");
    } else if (arg == "--pool") {
      config.pool_path = next("--pool");
    } else if (arg == "--freeze-pool") {
      freeze_path = next("--freeze-pool");
    } else if (arg == "--check-only") {
      check_only = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--compare") {
      compare_a = next("--compare");
      compare_b = next("--compare");
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }

  if (!freeze_path.empty()) {
    const orq::Status frozen = FreezePool(freeze_path);
    if (!frozen.ok()) {
      std::fprintf(stderr, "orq_bench: %s\n", frozen.ToString().c_str());
      return 1;
    }
    return 0;
  }
  orq::Result<BenchmarkSpec> spec = LoadSpec(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "orq_bench: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (!compare_a.empty()) return RunCompare(spec_path, compare_a, compare_b);
  if (smoke) return Smoke(*spec, config.pool_path);

  config.workload = FindWorkload(workload_name);
  if (config.workload == nullptr) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", workload_name.c_str());
    return Usage();
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (check_only) return CheckOnly(config);
#ifndef NDEBUG
  std::fprintf(stderr,
               "orq_bench: refusing to report from a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 1;
#endif
  orq::Result<Report> report = RunWorkload(config);
  orq::Status emitted = report.ok()
                            ? Emit(config, *report, *spec, sha, out_path)
                            : report.status();
  if (!emitted.ok()) {
    std::fprintf(stderr, "orq_bench: %s\n", emitted.ToString().c_str());
    return 1;
  }
  return 0;
}
