#ifndef ORQ_BENCH_BENCH_UTIL_H_
#define ORQ_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "obs/json.h"
#include "obs/report.h"
#include "tpch/tpch_gen.h"

namespace orq {
namespace bench {

/// Destination of the machine-readable benchmark report, set by the
/// `--json <path>` flag that ORQ_BENCH_MAIN strips before handing argv to
/// google-benchmark. Empty when no report was requested.
inline std::string& BenchJsonPath() {
  static auto* path = new std::string();
  return *path;
}

/// Worker-thread count applied to every benchmarked engine, set by the
/// `--threads N` flag that ORQ_BENCH_MAIN strips before handing argv to
/// google-benchmark. 0 (the default) leaves each configuration's serial
/// engine untouched; a positive count turns every run morsel-parallel —
/// how BENCH_parallel.json baselines are produced.
inline int& BenchThreads() {
  static int threads = 0;
  return threads;
}

/// Per-iteration query deadline in milliseconds, set by the
/// `--timeout-ms N` flag that ORQ_BENCH_MAIN strips before handing argv to
/// google-benchmark. 0 (the default) runs unbounded; a positive value arms
/// a CancelToken per Execute, so a pathological configuration aborts the
/// run with a DeadlineExceeded skip instead of hanging the suite.
inline int64_t& BenchTimeoutMs() {
  static int64_t timeout_ms = 0;
  return timeout_ms;
}

/// Scale factors are passed through google-benchmark's integer Args as
/// "milli scale factor": 5 -> SF 0.005.
inline double MilliSf(int64_t arg) { return arg / 1000.0; }

/// Per-operator plan JSON captured during `--json` runs, keyed by the
/// "plan#N" label each benchmark sets. google-benchmark's Run carries the
/// label but no arbitrary payload, so the JSON rides in this registry and
/// WriteBenchJson joins them back up by index.
inline std::vector<std::string>& PlanJsonRegistry() {
  static auto* plans = new std::vector<std::string>();
  return *plans;
}

/// Shared TPC-H catalogs, generated once per scale factor.
inline Catalog* TpchAt(double scale_factor) {
  static auto* catalogs = new std::map<double, std::unique_ptr<Catalog>>();
  auto it = catalogs->find(scale_factor);
  if (it == catalogs->end()) {
    auto catalog = std::make_unique<Catalog>();
    TpchGenOptions options;
    options.scale_factor = scale_factor;
    Status status = GenerateTpch(catalog.get(), options);
    if (!status.ok()) {
      std::fprintf(stderr, "TPC-H generation failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    // Warm the statistics cache so the first timed iteration does not pay
    // the one-time stats computation.
    for (const std::string& name : catalog->TableNames()) {
      catalog->GetStats(*catalog->FindTable(name));
    }
    it = catalogs->emplace(scale_factor, std::move(catalog)).first;
  }
  return it->second.get();
}

/// When ORQ_STATS_JSON names a file, re-runs `sql` once with full
/// instrumentation and appends the per-operator stats + rule trace as one
/// JSON line (schema in DESIGN.md). Outside the timing loop, so the
/// stats-collection overhead never contaminates reported numbers.
inline void MaybeDumpStatsJson(QueryEngine* engine, const std::string& sql,
                               const std::string& label) {
  const char* path = std::getenv("ORQ_STATS_JSON");
  if (path == nullptr || path[0] == '\0') return;
  Result<AnalyzedQuery> analyzed = engine->ExecuteAnalyzed(sql);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "ORQ_STATS_JSON: analyze failed: %s\n",
                 analyzed.status().ToString().c_str());
    return;
  }
  std::FILE* file = std::fopen(path, "a");
  if (file == nullptr) {
    std::fprintf(stderr, "ORQ_STATS_JSON: cannot open %s\n", path);
    return;
  }
  std::fprintf(file, "%s\n", analyzed->ToJson(label).c_str());
  std::fclose(file);
}

/// Largest hash-table/buffer cardinality any operator in the plan held.
inline int64_t MaxPeakCardinality(const PlanStatsNode& node) {
  int64_t peak = node.stats.peak_cardinality;
  for (const PlanStatsNode& child : node.children) {
    int64_t p = MaxPeakCardinality(child);
    if (p > peak) peak = p;
  }
  return peak;
}

/// Runs one query per benchmark iteration; reports result rows and the
/// engine's rows_produced work metric as counters. When a `--json` report
/// was requested, also re-runs the query once instrumented (outside the
/// timing loop) to report peak cardinality.
inline void RunQueryBenchmark(benchmark::State& state, Catalog* catalog,
                              const EngineOptions& options,
                              const std::string& sql,
                              const std::string& label = std::string()) {
  EngineOptions effective = options;
  if (BenchThreads() > 0) effective.exec.num_threads = BenchThreads();
  QueryEngine engine(catalog, effective);
  // Compile once outside the timing loop? No — the paper measures elapsed
  // query time, which includes optimization; ours is dominated by
  // execution anyway.
  int64_t result_rows = 0;
  int64_t produced = 0;
  for (auto _ : state) {
    CancelToken token;
    ExecControl control;
    if (BenchTimeoutMs() > 0) {
      token.SetTimeoutMs(BenchTimeoutMs());
      control.cancel = &token;
    }
    Result<QueryResult> result = engine.Execute(sql, control);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    result_rows = static_cast<int64_t>(result->rows.size());
    produced = result->rows_produced;
    benchmark::DoNotOptimize(result->rows.data());
  }
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["rows_produced"] = static_cast<double>(produced);
  if (!BenchJsonPath().empty()) {
    Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(sql);
    if (analyzed.ok()) {
      state.counters["peak_cardinality"] =
          static_cast<double>(MaxPeakCardinality(analyzed->plan));
      state.SetLabel("plan#" + std::to_string(PlanJsonRegistry().size()));
      PlanJsonRegistry().push_back(PlanStatsToJson(analyzed->plan));
    }
  }
  MaybeDumpStatsJson(&engine, sql, label);
}

/// The named engine configurations compared across the evaluation —
/// the "systems" of our Figure 8/9 reproduction.
struct NamedConfig {
  const char* name;
  EngineOptions options;
};

inline const std::vector<NamedConfig>& Configurations() {
  static const auto* configs = new std::vector<NamedConfig>{
      {"full", EngineOptions::Full()},
      {"no_groupby_opts", EngineOptions::NoGroupByOptimizations()},
      {"no_segment_apply", EngineOptions::NoSegmentApply()},
      {"correlated_only", EngineOptions::CorrelatedOnly()},
  };
  return *configs;
}

/// Console reporter that additionally collects every finished run so
/// ORQ_BENCH_MAIN can serialize them after the suite completes.
class JsonLinesReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    runs_.insert(runs_.end(), reports.begin(), reports.end());
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

/// Writes one JSON object per run (JSON-lines, the BENCH_*.json baseline
/// format): name, iterations, per-iteration wall_ms, every user counter
/// (result_rows, rows_produced, peak_cardinality), and an error flag.
inline bool WriteBenchJson(
    const std::string& path,
    const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "--json: cannot open %s\n", path.c_str());
    return false;
  }
  for (const benchmark::BenchmarkReporter::Run& run : runs) {
    std::string line = "{\"name\":";
    AppendJsonString(run.benchmark_name(), &line);
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"iterations\":%lld",
                  static_cast<long long>(run.iterations));
    line += buf;
    const double wall_ms =
        run.iterations > 0
            ? run.real_accumulated_time * 1e3 /
                  static_cast<double>(run.iterations)
            : run.real_accumulated_time * 1e3;
    std::snprintf(buf, sizeof buf, ",\"wall_ms\":%.6g", wall_ms);
    line += buf;
    // Thread count the suite ran under, so a parallel report is never
    // mistaken for (or gated against) a serial baseline by accident.
    std::snprintf(buf, sizeof buf, ",\"threads\":%d", BenchThreads());
    line += buf;
    for (const auto& [counter_name, counter] : run.counters) {
      line += ',';
      AppendJsonString(counter_name, &line);
      std::snprintf(buf, sizeof buf, ":%.17g", counter.value);
      line += buf;
    }
    // Rejoin the per-operator plan JSON captured under this run's
    // "plan#N" label (see PlanJsonRegistry).
    if (run.report_label.rfind("plan#", 0) == 0) {
      const size_t index = static_cast<size_t>(
          std::strtoul(run.report_label.c_str() + 5, nullptr, 10));
      if (index < PlanJsonRegistry().size()) {
        line += ",\"plan\":";
        line += PlanJsonRegistry()[index];
      }
    }
    line += run.error_occurred ? ",\"error\":true}" : ",\"error\":false}";
    std::fprintf(file, "%s\n", line.c_str());
  }
  std::fclose(file);
  return true;
}

}  // namespace bench
}  // namespace orq

/// Drop-in replacement for BENCHMARK_MAIN() that understands
/// `--json <path>`, `--threads N` and `--timeout-ms N`: runs the suite
/// normally (console output preserved) and then writes the
/// machine-readable JSON-lines report; a positive thread count makes every
/// benchmarked engine morsel-parallel; a positive timeout arms a per-query
/// deadline so a pathological plan aborts its benchmark instead of
/// hanging the suite.
#define ORQ_BENCH_MAIN()                                                    \
  int main(int argc, char** argv) {                                         \
    std::string json_path;                                                  \
    int bench_threads = 0;                                                  \
    long long bench_timeout_ms = 0;                                         \
    int kept = 1;                                                           \
    for (int i = 1; i < argc; ++i) {                                        \
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {            \
        json_path = argv[++i];                                              \
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {  \
        bench_threads = std::atoi(argv[++i]);                               \
        if (bench_threads < 1) {                                            \
          std::fprintf(stderr, "--threads expects a positive count\n");     \
          return 1;                                                         \
        }                                                                   \
      } else if (std::strcmp(argv[i], "--timeout-ms") == 0 &&               \
                 i + 1 < argc) {                                            \
        bench_timeout_ms = std::atoll(argv[++i]);                           \
        if (bench_timeout_ms < 1) {                                         \
          std::fprintf(stderr, "--timeout-ms expects a positive value\n");  \
          return 1;                                                         \
        }                                                                   \
      } else {                                                              \
        argv[kept++] = argv[i];                                             \
      }                                                                     \
    }                                                                       \
    argc = kept;                                                            \
    ::orq::bench::BenchJsonPath() = json_path;                              \
    ::orq::bench::BenchThreads() = bench_threads;                           \
    ::orq::bench::BenchTimeoutMs() = bench_timeout_ms;                      \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    ::orq::bench::JsonLinesReporter reporter;                               \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);                         \
    bool json_ok = json_path.empty() ||                                     \
                   ::orq::bench::WriteBenchJson(json_path, reporter.runs());\
    ::benchmark::Shutdown();                                                \
    return json_ok ? 0 : 1;                                                 \
  }                                                                         \
  static_assert(true, "require trailing semicolon")

#endif  // ORQ_BENCH_BENCH_UTIL_H_
