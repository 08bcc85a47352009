#include "layer_pass.h"

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "difftest/oracle.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/query_store.h"
#include "obs/report.h"
#include "server/wire.h"

namespace orq::bench {

namespace {

/// Layers whose self time the pass reports, in pipeline order; the first
/// kNumQueryPhases follow QueryPhase, so the engine's own phase timings map
/// onto them by index. kEngine is QueryEngine::Execute's own time outside
/// the phases it times (plan-cache lookup, parameter substitution, result
/// projection).
enum Layer : size_t {
  kParse,
  kBind,
  kApplyIntro,
  kNormalize,
  kOptimize,
  kPhysicalBuild,
  kExecute,
  kEncode,
  kDecode,
  kEngine,
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "sql.parse",    "sql.bind",           "sql.apply_intro", "normalize",
    "opt.optimize", "opt.physical_build", "exec.execute",    "server.encode",
    "server.decode", "engine"};
static_assert(kExecute + 1 == kNumQueryPhases);
/// Each traced query's root span; the layer spans are its descendants.
/// Spans are only ever named by these constants, so names compare by
/// address.
constexpr const char* kQuerySpan = "query";

/// A traced execution's answer and the counters it recorded.
struct Traced {
  std::vector<std::string> rows;  // decoded canonical rows
  int64_t rows_produced = 0;
  MetricsRegistry metrics;
  PlanStatsNode plan;
};

class LayerPass {
 public:
  LayerPass(const Workload& workload, Catalog* catalog, SpanLog* log)
      : engine_(catalog, ServerEngineOptions(workload)), log_(log) {}

  /// One query through the three paths, in rotating order so no path
  /// always runs first on cold caches.
  Status RunOnce(const BenchQuery& query, int64_t execution, bool count);

  LayerPassResult Finish(const std::vector<BenchQuery>& queries,
                         const std::vector<int>& execution_query);

 private:
  static EngineOptions ServerEngineOptions(const Workload& workload) {
    EngineOptions options;  // the server's default engine configuration
    options.plan_cache.enable = workload.plan_cache;
    return options;
  }

  /// QueryEngine::Execute under an engine span, with the phases its
  /// QueryObservation timed placed as child spans.
  Result<Traced> TraceEngine(const std::string& sql, int64_t execution);
  /// Encode + decode the answer the way the server and client do.
  Result<std::vector<std::string>> WireRoundTrip(QueryResult result,
                                                 int64_t execution);

  QueryEngine engine_;
  SpanLog* log_;

  int64_t plain_nanos_ = 0;
  int64_t observed_nanos_ = 0;
  int64_t traced_nanos_ = 0;  // traced wall minus encode/decode
  int64_t rows_produced_total_ = 0;
  // Exact counters over the first full pass only.
  int64_t pass_rows_produced_ = 0;
  int64_t peak_cardinality_ = 0;
  MetricsRegistry pass_metrics_;
  std::map<std::string, int64_t> op_self_nanos_;
  LayerPassResult result_;
};

void AddOpSelf(const PlanStatsNode& node,
               std::map<std::string, int64_t>* by_kind) {
  (*by_kind)[node.name.substr(0, node.name.find('('))] += node.self_wall_nanos;
  for (const PlanStatsNode& child : node.children) AddOpSelf(child, by_kind);
}

Result<std::vector<std::string>> LayerPass::WireRoundTrip(
    QueryResult result, int64_t execution) {
  std::string payload;
  {
    // The server frees the engine's result once it is encoded; so does
    // this span.
    ScopedSpan span(log_, kLayerNames[kEncode], execution);
    WireResult wire;
    wire.columns = result.column_names;
    wire.rows.reserve(result.rows.size());
    for (const Row& row : result.rows) wire.rows.push_back(CanonicalRow(row));
    wire.rows_produced = result.rows_produced;
    payload = EncodeResult(wire);
    result = QueryResult();
  }
  ScopedSpan span(log_, kLayerNames[kDecode], execution);
  ORQ_ASSIGN_OR_RETURN(WireResult decoded, DecodeResult(payload));
  return std::move(decoded.rows);
}

Result<Traced> LayerPass::TraceEngine(const std::string& sql,
                                      int64_t execution) {
  Traced traced;
  ScopedSpan root(log_, kQuerySpan, execution);
  QueryObservation observe;
  ExecControl control;
  control.observe = &observe;
  control.metrics = &traced.metrics;
  Result<QueryResult> result = Status::Internal("not run");
  int engine_span = 0;
  {
    ScopedSpan span(log_, kLayerNames[kEngine], execution);
    engine_span = span.id();
    result = engine_.Execute(sql, control);
  }
  for (int p = 0; p < kNumQueryPhases; ++p) {
    const PhaseSpan& phase = observe.profile.phases[p];
    if (phase.wall_nanos == 0) continue;
    log_->Add(kLayerNames[p], phase.start_nanos,
              phase.start_nanos + phase.wall_nanos, engine_span, execution);
  }
  if (!result.ok()) return result.status();
  traced.rows_produced = result->rows_produced;
  ORQ_ASSIGN_OR_RETURN(traced.rows,
                       WireRoundTrip(std::move(*result), execution));
  traced.plan = std::move(observe.plan);
  return traced;
}

Status LayerPass::RunOnce(const BenchQuery& query, int64_t execution,
                          bool count) {
  Result<Traced> traced = Status::Internal("not run");
  for (int step = 0; step < 3; ++step) {
    const int path = static_cast<int>((execution + step) % 3);
    const int64_t start = ObsNowNanos();
    if (path == 0) {
      Result<QueryResult> plain = engine_.Execute(query.sql);
      plain_nanos_ += ObsNowNanos() - start;
      if (!plain.ok()) return plain.status();
    } else if (path == 1) {
      // The server attaches an observation and a metrics sink to every
      // query; this is the engine call it makes.
      QueryObservation observe;
      MetricsRegistry metrics;
      ExecControl control;
      control.observe = &observe;
      control.metrics = &metrics;
      Result<QueryResult> observed = engine_.Execute(query.sql, control);
      observed_nanos_ += ObsNowNanos() - start;
      if (!observed.ok()) return observed.status();
    } else {
      const size_t first_span = log_->spans().size();
      traced = TraceEngine(query.sql, execution);
      int64_t wire_nanos = 0;
      for (size_t s = first_span; s < log_->spans().size(); ++s) {
        const Span& span = log_->spans()[s];
        if (span.name == kLayerNames[kEncode] ||
            span.name == kLayerNames[kDecode]) {
          wire_nanos += span.end_nanos - span.start_nanos;
        }
      }
      traced_nanos_ += ObsNowNanos() - start - wire_nanos;
      if (!traced.ok()) return traced.status();
    }
  }

  ++result_.executions;
  if (static_cast<int64_t>(traced->rows.size()) != query.rows ||
      BagHash(traced->rows) != query.hash) {
    ++result_.mismatches;
    std::fprintf(stderr, "orq_bench: traced result mismatch on %s\n",
                 query.id.c_str());
  }
  rows_produced_total_ += traced->rows_produced;
  if (count) {
    pass_rows_produced_ += traced->rows_produced;
    pass_metrics_.MergeFrom(traced->metrics);
    peak_cardinality_ =
        std::max(peak_cardinality_, MaxPeakCardinality(traced->plan));
    AddOpSelf(traced->plan, &op_self_nanos_);
  }
  return Status::OK();
}

LayerPassResult LayerPass::Finish(const std::vector<BenchQuery>& queries,
                                  const std::vector<int>& execution_query) {
  const size_t executions = execution_query.size();
  std::vector<std::vector<double>> self(kNumLayers,
                                        std::vector<double>(executions, 0.0));
  const std::vector<int64_t> self_nanos = log_->SelfNanos();
  int64_t wall_nanos = 0;
  int64_t unattributed_nanos = 0;
  const std::deque<Span>& spans = log_->spans();
  for (size_t s = 0; s < spans.size(); ++s) {
    const Span& span = spans[s];
    const size_t execution = static_cast<size_t>(span.query);
    if (span.name == kQuerySpan) {
      // Layer self times must account for the query's in-process wall:
      // what the root keeps for itself is unattributed.
      const int64_t wall = span.end_nanos - span.start_nanos;
      wall_nanos += wall;
      unattributed_nanos += self_nanos[s];
      if (self_nanos[s] * 20 > wall) ++result_.unattributed;
      continue;
    }
    for (size_t l = 0; l < kNumLayers; ++l) {
      if (span.name == kLayerNames[l]) {
        self[l][execution] += static_cast<double>(self_nanos[s]);
        break;
      }
    }
  }

  auto median_us = [&](Layer layer) { return Median(self[layer]) / 1e3; };
  double exec_nanos = 0.0;
  for (double nanos : self[kExecute]) exec_nanos += nanos;
  const HistogramData& fill =
      pass_metrics_.histogram(MetricHistogram::kBatchFillPercent);
  auto pct = [](int64_t part, int64_t base) {
    return base > 0 ? 100.0 * static_cast<double>(part - base) /
                          static_cast<double>(base)
                    : 0.0;
  };

  std::vector<Metric>& m = result_.metrics;
  m.push_back({"sql.parse_us", median_us(kParse), "us"});
  m.push_back({"sql.bind_us", median_us(kBind), "us"});
  m.push_back({"sql.apply_intro_us", median_us(kApplyIntro), "us"});
  m.push_back({"normalize.us", median_us(kNormalize), "us"});
  m.push_back({"opt.optimize_us", median_us(kOptimize), "us"});
  m.push_back({"opt.physical_build_us", median_us(kPhysicalBuild), "us"});
  m.push_back({"exec.execute_ms", median_us(kExecute) / 1e3, "ms"});
  m.push_back({"exec.ns_per_row",
               rows_produced_total_ > 0
                   ? exec_nanos / static_cast<double>(rows_produced_total_)
                   : 0.0,
               "ns"});
  m.push_back({"exec.rows_produced", static_cast<double>(pass_rows_produced_),
               "count"});
  m.push_back({"exec.apply_inner_opens",
               static_cast<double>(
                   pass_metrics_.counter(MetricCounter::kApplyInnerOpens)),
               "count"});
  m.push_back({"exec.hash_join_probes",
               static_cast<double>(
                   pass_metrics_.counter(MetricCounter::kHashJoinProbes)),
               "count"});
  m.push_back({"exec.hash_agg_input_rows",
               static_cast<double>(
                   pass_metrics_.counter(MetricCounter::kHashAggInputRows)),
               "count"});
  m.push_back({"exec.batch_fill_pct", fill.Mean(), "%"});
  m.push_back({"exec.peak_cardinality", static_cast<double>(peak_cardinality_),
               "count"});
  m.push_back({"engine.self_us", median_us(kEngine), "us"});
  m.push_back({"server.encode_us", median_us(kEncode), "us"});
  m.push_back({"server.decode_us", median_us(kDecode), "us"});
  result_.unattributed_pct =
      wall_nanos > 0 ? 100.0 * static_cast<double>(unattributed_nanos) /
                           static_cast<double>(wall_nanos)
                     : 0.0;
  m.push_back({"obs.observe_overhead_pct", pct(observed_nanos_, plain_nanos_),
               "%"});
  m.push_back({"bench.trace_overhead_pct", pct(traced_nanos_, observed_nanos_),
               "%"});

  // Per TPC-H query execute time, and per operator kind over one pass.
  std::map<std::string, std::vector<double>> by_query;
  const std::vector<double>& exec = self[kExecute];
  for (size_t e = 0; e < executions; ++e) {
    const BenchQuery& query =
        queries[static_cast<size_t>(execution_query[e])];
    if (query.id[0] == 'Q') by_query[query.id].push_back(exec[e] / 1e6);
  }
  for (const auto& [id, values] : by_query) {
    result_.extras.push_back({"exec.execute_ms." + id, Median(values), "ms"});
  }
  for (const auto& [kind, nanos] : op_self_nanos_) {
    result_.extras.push_back({"exec.op." + kind + ".self_ms",
                              static_cast<double>(nanos) / 1e6, "ms"});
  }
  return std::move(result_);
}

}  // namespace

Result<LayerPassResult> RunLayerPass(const Workload& workload,
                                     Catalog* catalog,
                                     const std::vector<BenchQuery>& queries,
                                     double seconds, SpanLog* log) {
  LayerPass pass(workload, catalog, log);
  std::vector<int> execution_query;
  const int64_t end = ObsNowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (int round = 0; round == 0 || ObsNowNanos() < end; ++round) {
    for (size_t q = 0; q < queries.size(); ++q) {
      if (round > 0 && ObsNowNanos() >= end) break;
      const int64_t execution = static_cast<int64_t>(execution_query.size());
      execution_query.push_back(static_cast<int>(q));
      Status ran = pass.RunOnce(queries[q], execution, round == 0);
      if (!ran.ok()) {
        return Status(ran.code(), queries[q].id + ": " + ran.message());
      }
    }
  }
  return pass.Finish(queries, execution_query);
}

}  // namespace orq::bench
