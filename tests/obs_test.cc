// Tests for the observability subsystem: per-operator runtime stats,
// rule/phase tracing, EXPLAIN ANALYZE, and the stats JSON pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/spans.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

std::vector<std::string> RowsToStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  return out;
}

void ForEachNode(const PlanStatsNode& node,
                 const std::function<void(const PlanStatsNode&)>& fn) {
  fn(node);
  for (const PlanStatsNode& child : node.children) ForEachNode(child, fn);
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchGenOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(GenerateTpch(&catalog_, options).ok());
  }

  Catalog catalog_;
  const std::string subquery_sql_ =
      "select c_custkey from customer "
      "where 1000 < (select sum(o_totalprice) from orders "
      "              where o_custkey = c_custkey)";
};

// (a) The per-operator row counts must aggregate to the engine's
// rows_produced work metric, and the analyzed metric must equal the plain
// execution's (the two accountings are one mechanism now).
TEST_F(ObsTest, PerOpRowsSumMatchesRowsProduced) {
  QueryEngine engine(&catalog_);
  Result<QueryResult> plain = engine.Execute(subquery_sql_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  EXPECT_GT(analyzed->result.rows_produced, 0);
  EXPECT_EQ(TotalRowsOut(analyzed->plan), analyzed->result.rows_produced);
  EXPECT_EQ(plain->rows_produced, analyzed->result.rows_produced);
}

// Every operator the execution touched reports balanced Open/Close calls
// and a row count consistent with its Next calls.
TEST_F(ObsTest, OperatorCountersAreConsistent) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  int64_t ops = 0;
  ForEachNode(analyzed->plan, [&](const PlanStatsNode& node) {
    ++ops;
    EXPECT_EQ(node.stats.open_calls, node.stats.close_calls) << node.name;
    // next_calls counts pulls, not rows: a NextColumns pull returns up to
    // a batch of rows, so next_calls sits well below rows_out on columnar
    // operators (that divergence is the point of the counter). Every pull
    // returns at most one batch.
    EXPECT_LE(node.stats.rows_out,
              node.stats.next_calls * kDefaultBatchRows)
        << node.name;
    if (node.stats.rows_out > 0) {
      EXPECT_GE(node.stats.next_calls, 1) << node.name;
    }
    EXPECT_GE(node.stats.wall_nanos, node.self_wall_nanos) << node.name;
    EXPECT_GE(node.self_wall_nanos, 0) << node.name;
  });
  EXPECT_GE(ops, 3);
  // The default engine is columnar: some operator must have moved many
  // rows per pull, i.e. rows_out well above next_calls.
  bool diverged = false;
  ForEachNode(analyzed->plan, [&](const PlanStatsNode& node) {
    if (node.stats.rows_out > node.stats.next_calls) diverged = true;
  });
  EXPECT_TRUE(diverged);
}

// Under correlated-only execution the inner side re-opens once per outer
// row — the re-open counter is what makes Fig. 1's N+1 pattern visible.
TEST_F(ObsTest, CorrelatedExecutionShowsReopens) {
  QueryEngine engine(&catalog_, EngineOptions::CorrelatedOnly());
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  int64_t max_opens = 0;
  ForEachNode(analyzed->plan, [&](const PlanStatsNode& node) {
    if (node.stats.open_calls > max_opens) max_opens = node.stats.open_calls;
  });
  // SF 0.002 has 300 customers; the correlated inner opens once per row.
  EXPECT_EQ(max_opens, 300);
}

// (b) The rule trace records the Apply-removal sequence the paper's Fig. 4
// identities prescribe for a correlated scalar aggregate: pushdown into
// the Apply (identity 2), GroupBy pull-up (identity 9), and the final
// Apply-to-join conversion (identity 4).
TEST_F(ObsTest, TraceRecordsApplyRemovalSequence) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  ASSERT_FALSE(analyzed->trace.empty());

  std::vector<std::string> normalize_rules;
  for (const TraceEvent* event :
       analyzed->trace.RuleFirings(TraceEvent::Stage::kNormalize)) {
    normalize_rules.push_back(event->rule);
  }
  EXPECT_EQ(normalize_rules,
            (std::vector<std::string>{"identity(2)", "identity(9)",
                                      "identity(4)"}));

  // Phase events bracket the pipeline; apply_removal must appear and must
  // have changed the tree.
  bool saw_apply_removal = false;
  for (const TraceEvent& event : analyzed->trace.events()) {
    if (event.kind == TraceEvent::Kind::kPhase &&
        event.rule == "apply_removal") {
      saw_apply_removal = true;
      EXPECT_GT(event.nodes_before, 0);
      EXPECT_GT(event.nodes_after, 0);
    }
  }
  EXPECT_TRUE(saw_apply_removal);
}

// A pass that leaves the tree alone returns it as the same root, so it
// records no phase event: Q1 has no outer join, and outer-join
// simplification must not show up in its trace.
TEST_F(ObsTest, TraceOmitsPassesThatChangeNothing) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed =
      engine.ExecuteAnalyzed(GetTpchQuery("Q1").sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  for (const TraceEvent& event : analyzed->trace.events()) {
    EXPECT_NE(event.rule, "oj_simplify");
  }
}

// Optimizer firings carry cost-before/cost-after; accepted rules must
// report an improvement.
TEST_F(ObsTest, OptimizerTraceReportsCostImprovements) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  for (const TraceEvent* event :
       analyzed->trace.RuleFirings(TraceEvent::Stage::kOptimize)) {
    EXPECT_GE(event->cost_before, 0.0) << event->rule;
    EXPECT_LT(event->cost_after, event->cost_before) << event->rule;
  }
}

// (c) With stats disabled (no collector on the context) execution must
// behave exactly as before: same rows, same rows_produced, and nothing
// recorded anywhere.
TEST_F(ObsTest, DisabledStatsIdenticalResultsAndZeroEntries) {
  QueryEngine engine(&catalog_);
  Result<QueryResult> plain = engine.Execute(subquery_sql_);
  ASSERT_TRUE(plain.ok());
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());

  EXPECT_EQ(plain->column_names, analyzed->result.column_names);
  EXPECT_EQ(RowsToStrings(plain->rows), RowsToStrings(analyzed->result.rows));
  EXPECT_EQ(plain->rows_produced, analyzed->result.rows_produced);

  // Executing a compiled plan without attaching the collector must leave
  // it untouched.
  Result<QueryEngine::Compiled> compiled = engine.Compile(subquery_sql_);
  ASSERT_TRUE(compiled.ok());
  StatsCollector collector;
  Result<QueryResult> uninstrumented = engine.ExecuteCompiled(*compiled);
  ASSERT_TRUE(uninstrumented.ok());
  EXPECT_TRUE(collector.empty());
  EXPECT_EQ(collector.TotalRowsOut(), 0);
  EXPECT_EQ(uninstrumented->rows_produced, plain->rows_produced);
}

// Compile-time artifacts: tracing must not alter what the engine produces
// (trace sinks are write-only observers).
TEST_F(ObsTest, TracingDoesNotChangePlans) {
  QueryEngine engine(&catalog_);
  Result<std::string> without = engine.Explain(subquery_sql_);
  ASSERT_TRUE(without.ok());
  // ExecuteAnalyzed compiles with trace attached; Explain afterwards must
  // render the same plans.
  ASSERT_TRUE(engine.ExecuteAnalyzed(subquery_sql_).ok());
  Result<std::string> after = engine.Explain(subquery_sql_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*without, *after);
}

TEST_F(ObsTest, ExplainAnalyzeRendersActualsAndEstimates) {
  QueryEngine engine(&catalog_);
  Result<std::string> text = engine.ExplainAnalyze(subquery_sql_);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  for (const char* marker :
       {"actual rows=", "est rows=", "est cost=", "time=", "opens=",
        "Rewrite trace", "identity(2)", "rows_produced="}) {
    EXPECT_NE(text->find(marker), std::string::npos) << marker;
  }
}

TEST_F(ObsTest, HashOperatorsReportPeakCardinality) {
  QueryEngine engine(&catalog_);
  // The decorrelated plan aggregates orders by custkey: some hash-based
  // operator must have held a nonzero peak.
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  int64_t max_peak = 0;
  ForEachNode(analyzed->plan, [&](const PlanStatsNode& node) {
    if (node.stats.peak_cardinality > max_peak) {
      max_peak = node.stats.peak_cardinality;
    }
  });
  EXPECT_GT(max_peak, 0);
}

TEST_F(ObsTest, AnalyzedJsonIsValidAndRoundTrips) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  const std::string json = analyzed->ToJson("obs_test");
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error;
  // Key schema fields present (DESIGN.md contract).
  for (const char* field :
       {"\"label\":\"obs_test\"", "\"sql\":", "\"rows_produced\":",
        "\"plan\":", "\"trace\":", "\"actual_rows\":", "\"est_rows\":",
        "\"wall_nanos\":", "\"children\":", "\"rule\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

// The lifecycle phases are timed back to back inside one total window, so
// their sum must account for (nearly) all of the end-to-end wall time —
// only trivial bookkeeping between phases is unattributed. Two inputs:
// ExecuteAnalyzed and the observed Execute behind `\history` profiles.
// Timing tests fight the scheduler; a few attempts keep this deterministic
// in practice.
TEST_F(ObsTest, PhaseSumCoversTotalWallTime) {
  QueryEngine engine(&catalog_);
  for (bool analyze : {true, false}) {
    SCOPED_TRACE(analyze ? "ExecuteAnalyzed" : "observed Execute");
    double best_ratio = 0.0;
    for (int attempt = 0; attempt < 5 && best_ratio < 0.95; ++attempt) {
      QueryProfile profile;
      if (analyze) {
        Result<AnalyzedQuery> analyzed =
            engine.ExecuteAnalyzed(subquery_sql_);
        ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
        profile = analyzed->profile;
      } else {
        QueryObservation observe;
        ExecControl control;
        control.observe = &observe;
        Result<QueryResult> result = engine.Execute(subquery_sql_, control);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        profile = observe.profile;
      }
      ASSERT_GT(profile.total_nanos, 0);
      EXPECT_LE(profile.PhaseSum(), profile.total_nanos);
      const double ratio = static_cast<double>(profile.PhaseSum()) /
                           static_cast<double>(profile.total_nanos);
      if (ratio > best_ratio) best_ratio = ratio;
    }
    EXPECT_GE(best_ratio, 0.95);
  }
}

// An observed Execute and ExecuteAnalyzed run one lifecycle, so apart
// from timings they report the same query: with the plan cache off, on a
// cache miss and on a cache hit.
TEST_F(ObsTest, ObservedExecuteMatchesExecuteAnalyzed) {
  struct Report {
    std::vector<std::string> rows;
    int64_t rows_produced = 0;
    CacheOutcome cache = CacheOutcome::kOff;
    PlanStatsNode plan;
  };
  auto observed = [this](QueryEngine* engine) {
    QueryObservation observe;
    ExecControl control;
    control.observe = &observe;
    Result<QueryResult> result = engine->Execute(subquery_sql_, control);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(observe.has_plan);
    if (!result.ok()) return Report();
    return Report{RowsToStrings(result->rows), result->rows_produced,
                  observe.profile.cache, std::move(observe.plan)};
  };
  auto analyzed = [this](QueryEngine* engine) {
    Result<AnalyzedQuery> query = engine->ExecuteAnalyzed(subquery_sql_);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) return Report();
    return Report{RowsToStrings(query->result.rows),
                  query->result.rows_produced, query->profile.cache,
                  std::move(query->plan)};
  };
  auto operators = [](const PlanStatsNode& plan) {
    std::vector<std::string> out;
    ForEachNode(plan, [&out](const PlanStatsNode& node) {
      out.push_back(node.name + " est=" + std::to_string(node.est_rows) +
                    " actual=" + std::to_string(node.stats.rows_out));
    });
    return out;
  };

  EngineOptions cached = EngineOptions::Full();
  cached.plan_cache.enable = true;
  QueryEngine plain_engine(&catalog_);
  QueryEngine observed_engine(&catalog_, cached);
  QueryEngine analyzed_engine(&catalog_, cached);
  struct State {
    const char* name;
    QueryEngine* observed;
    QueryEngine* analyzed;
    CacheOutcome cache;
  };
  for (const State& state :
       {State{"cache off", &plain_engine, &plain_engine, CacheOutcome::kOff},
        State{"cache miss", &observed_engine, &analyzed_engine,
              CacheOutcome::kMiss},
        State{"cache hit", &observed_engine, &analyzed_engine,
              CacheOutcome::kHit}}) {
    SCOPED_TRACE(state.name);
    const Report a = observed(state.observed);
    const Report b = analyzed(state.analyzed);
    EXPECT_FALSE(a.rows.empty());
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.rows_produced, b.rows_produced);
    EXPECT_EQ(a.cache, state.cache);
    EXPECT_EQ(b.cache, state.cache);
    EXPECT_EQ(operators(a.plan), operators(b.plan));
    EXPECT_EQ(TotalRowsOut(a.plan), a.rows_produced);
    EXPECT_EQ(TotalRowsOut(b.plan), b.rows_produced);
  }
}

TEST_F(ObsTest, ProfileRecordsEveryPipelinePhase) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  for (int i = 0; i < kNumQueryPhases; ++i) {
    const PhaseSpan& span = analyzed->profile.phases[i];
    EXPECT_GT(span.wall_nanos, 0)
        << QueryPhaseName(static_cast<QueryPhase>(i));
    EXPECT_GE(span.start_nanos, analyzed->profile.start_nanos)
        << QueryPhaseName(static_cast<QueryPhase>(i));
  }
  // Rendered breakdown names every phase and reports rule-level time.
  const std::string text =
      RenderProfile(analyzed->profile, &analyzed->trace);
  for (const char* phase : {"parse", "bind", "apply_intro", "normalize",
                            "optimize", "physical_build", "execute"}) {
    EXPECT_NE(text.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(text.find("rule time:"), std::string::npos);

  const std::string json = ProfileToJson(analyzed->profile);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.NumberOr("total_nanos", -1),
            static_cast<double>(analyzed->profile.total_nanos));
  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_array());
  EXPECT_EQ(phases->array.size(), static_cast<size_t>(kNumQueryPhases));
  EXPECT_EQ(phases->array[0].StringOr("phase", ""), "parse");
}

// Batch fill is physical: a filter narrows its output's selection vector
// but not the rows the batch carries, so a selective filter over full scan
// batches lowers the selection density and leaves the fill alone.
TEST_F(ObsTest, BatchFillCountsPhysicalRowsNotSelectedOnes) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(
      "select count(*) from lineitem where l_quantity < 5");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  const HistogramData& fill =
      analyzed->metrics.histogram(MetricHistogram::kBatchFillPercent);
  const HistogramData& selectivity =
      analyzed->metrics.histogram(MetricHistogram::kSelVectorSelectivity);
  ASSERT_GT(fill.count, 0);
  EXPECT_EQ(fill.count, selectivity.count);
  EXPECT_GT(fill.Mean(), selectivity.Mean());
  EXPECT_GE(fill.max, 100);  // full scan batches
}

// ExplainAnalyze leads with the phase breakdown and (when metrics fired)
// the engine-metrics section.
TEST_F(ObsTest, ExplainAnalyzeShowsPhaseAndMetricsSections) {
  QueryEngine engine(&catalog_);
  Result<std::string> text = engine.ExplainAnalyze(subquery_sql_);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  for (const char* marker : {"== Phase times ==", "execute", "total",
                             "== Engine metrics =="}) {
    EXPECT_NE(text->find(marker), std::string::npos) << marker;
  }
  // Phase header precedes the physical plan.
  EXPECT_LT(text->find("== Phase times =="), text->find("actual rows="));
}

// The decorrelated plan for the scalar-aggregate subquery drives the hash
// paths: the aggregate sees orders rows and the join probes customers.
TEST_F(ObsTest, MetricsCaptureHashPathShape) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  const MetricsRegistry& metrics = analyzed->metrics;
  ASSERT_FALSE(metrics.empty());
  EXPECT_GT(metrics.counter(MetricCounter::kHashAggInputRows), 0);
  EXPECT_GT(metrics.counter(MetricCounter::kHashAggGroups), 0);
  // Under the default columnar engine every non-empty batch pull reports
  // both its physical fill and its selection density.
  const HistogramData& fill =
      metrics.histogram(MetricHistogram::kBatchFillPercent);
  EXPECT_GT(fill.count, 0);
  EXPECT_EQ(fill.count,
            metrics.histogram(MetricHistogram::kSelVectorSelectivity).count);
  EXPECT_EQ(fill.count, metrics.counter(MetricCounter::kColumnBatches));

  const std::string json = MetricsToJson(metrics);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("hash_agg.groups", -1),
            static_cast<double>(
                metrics.counter(MetricCounter::kHashAggGroups)));
  const JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_EQ(histograms->array.size(),
            static_cast<size_t>(kNumMetricHistograms));
}

// Correlated-only execution re-opens the inner plan once per outer row;
// the metric mirrors the per-operator open_calls evidence.
TEST_F(ObsTest, MetricsCountApplyReopens) {
  QueryEngine engine(&catalog_, EngineOptions::CorrelatedOnly());
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->metrics.counter(MetricCounter::kApplyInnerOpens), 300);
}

// Span export: one complete event per operator Open→Close plus one per
// phase, single-line JSON the Chrome trace viewer loads. The op tree
// round-trips through the args (op_id/parent_id).
TEST_F(ObsTest, ChromeTraceRoundTripsOperatorTree) {
  QueryEngine engine(&catalog_);
  AnalyzeOptions analyze;
  analyze.record_spans = true;
  Result<AnalyzedQuery> analyzed =
      engine.ExecuteAnalyzed(subquery_sql_, analyze);
  ASSERT_TRUE(analyzed.ok());
  ASSERT_FALSE(analyzed->spans.spans().empty());
  // One span per Open→Close: at least one per registered operator, more
  // when the cost model keeps correlated execution (re-opens repeat the
  // inner operator's span — SpansRepeatForCorrelatedReopens pins that).
  EXPECT_GE(analyzed->spans.spans().size(), analyzed->spans.ops().size());

  const std::string json =
      ChromeTraceJson(&analyzed->profile, analyzed->spans);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error;
  EXPECT_EQ(json.find('\n'), std::string::npos);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int phase_events = 0;
  int op_events = 0;
  int roots = 0;
  std::vector<double> ids;
  for (const JsonValue& event : events->array) {
    EXPECT_EQ(event.StringOr("ph", ""), "X");
    EXPECT_GE(event.NumberOr("dur", -1), 0);
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    if (args->StringOr("cat", "") == "phase") {
      ++phase_events;
      continue;
    }
    ++op_events;
    const double op_id = args->NumberOr("op_id", -1);
    const double parent = args->NumberOr("parent_id", -2);
    EXPECT_GE(op_id, 0);
    EXPECT_FALSE(args->StringOr("name", "").empty());
    if (parent == -1) ++roots;
    ids.push_back(op_id);
  }
  EXPECT_EQ(phase_events, kNumQueryPhases);
  EXPECT_EQ(op_events,
            static_cast<int>(analyzed->spans.spans().size()));
  // Exactly one root operator; every span maps to a registered op.
  EXPECT_EQ(roots, 1);
  for (double id : ids) {
    EXPECT_LT(id, static_cast<double>(analyzed->spans.ops().size()));
  }
}

// Correlated re-opens show up as repeated spans of the same operator.
TEST_F(ObsTest, SpansRepeatForCorrelatedReopens) {
  QueryEngine engine(&catalog_, EngineOptions::CorrelatedOnly());
  AnalyzeOptions analyze;
  analyze.record_spans = true;
  Result<AnalyzedQuery> analyzed =
      engine.ExecuteAnalyzed(subquery_sql_, analyze);
  ASSERT_TRUE(analyzed.ok());
  std::vector<int> opens_by_op(analyzed->spans.ops().size(), 0);
  for (const OpSpan& span : analyzed->spans.spans()) {
    ++opens_by_op[static_cast<size_t>(span.op_id)];
  }
  int max_opens = 0;
  for (int n : opens_by_op) max_opens = std::max(max_opens, n);
  EXPECT_EQ(max_opens, 300);
}

// Span recording is strictly opt-in: the default analyze path and plain
// execution leave the recorder empty.
TEST_F(ObsTest, SpansAreOptIn) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_TRUE(analyzed->spans.empty());
}

TEST_F(ObsTest, AnalyzedJsonEmbedsProfileAndMetrics) {
  QueryEngine engine(&catalog_);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(subquery_sql_);
  ASSERT_TRUE(analyzed.ok());
  const std::string json = analyzed->ToJson("obs_test");
  std::string error;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* profile = doc.Find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_GT(profile->NumberOr("total_nanos", 0), 0);
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->Find("counters"), nullptr);
}

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  MetricsRegistry metrics;
  // 1 -> bucket 0, 2 -> bucket 1, 3..4 -> bucket 2, 1000 -> bucket 10.
  metrics.Observe(MetricHistogram::kHashJoinChainLength, 1);
  metrics.Observe(MetricHistogram::kHashJoinChainLength, 2);
  metrics.Observe(MetricHistogram::kHashJoinChainLength, 3);
  metrics.Observe(MetricHistogram::kHashJoinChainLength, 4);
  metrics.Observe(MetricHistogram::kHashJoinChainLength, 1000);
  const HistogramData& h =
      metrics.histogram(MetricHistogram::kHashJoinChainLength);
  EXPECT_EQ(h.count, 5);
  EXPECT_EQ(h.sum, 1010);
  EXPECT_EQ(h.max, 1000);
  EXPECT_EQ(h.buckets[0], 1);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.buckets[2], 2);
  EXPECT_EQ(h.buckets[10], 1);
  EXPECT_FALSE(metrics.empty());
  metrics.clear();
  EXPECT_TRUE(metrics.empty());
}

TEST(MetricsTest, OverflowLandsInLastBucket) {
  MetricsRegistry metrics;
  metrics.Observe(MetricHistogram::kHashJoinBucketRows, int64_t{1} << 40);
  const HistogramData& h =
      metrics.histogram(MetricHistogram::kHashJoinBucketRows);
  EXPECT_EQ(h.buckets[kMetricHistogramBuckets - 1], 1);
}

TEST(JsonValidatorTest, AcceptsWellFormedDocuments) {
  std::string error;
  for (const char* doc :
       {"{}", "[]", "null", "true", "-1.5e3", "\"a\\\"b\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u0041\"}", "  [0]  "}) {
    EXPECT_TRUE(ValidateJson(doc, &error)) << doc << ": " << error;
  }
}

TEST(JsonValidatorTest, RejectsMalformedDocuments) {
  std::string error;
  for (const char* doc :
       {"", "{", "{\"a\":}", "[1,]", "{}x", "{'a':1}", "nul", "01",
        "\"unterminated", "{\"a\" 1}", "[1 2]"}) {
    EXPECT_FALSE(ValidateJson(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(JsonValidatorTest, StringEscaping) {
  std::string out;
  AppendJsonString("he said \"hi\"\n\ttab\\", &out);
  std::string error;
  EXPECT_TRUE(ValidateJson(out, &error)) << error;
  EXPECT_EQ(out, "\"he said \\\"hi\\\"\\n\\ttab\\\\\"");
}

// Control characters below 0x20 must come out as \u00XX escapes (raw
// control bytes are invalid JSON); the dedicated two-char escapes win for
// the common whitespace ones.
TEST(JsonValidatorTest, ControlCharacterEscaping) {
  std::string out;
  AppendJsonString(std::string("a\x01" "b\x1f") + "\r\x08\x0c", &out);
  EXPECT_EQ(out, "\"a\\u0001b\\u001f\\r\\u0008\\u000c\"");
  std::string error;
  EXPECT_TRUE(ValidateJson(out, &error)) << error;
  // Round trip: the parser decodes the escapes back to the raw bytes.
  JsonValue doc;
  ASSERT_TRUE(ParseJson(out, &doc, &error)) << error;
  EXPECT_EQ(doc.string_value, std::string("a\x01" "b\x1f") + "\r\x08\x0c");
}

TEST(JsonParserTest, BuildsDomWithInsertionOrder) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(
      "{\"z\":1,\"a\":[true,null,\"x\\u0041\"],\"m\":{\"n\":-2.5e1}}",
      &doc, &error))
      << error;
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.object.size(), 3u);
  // Members keep source order (the emitters rely on stable field order).
  EXPECT_EQ(doc.object[0].first, "z");
  EXPECT_EQ(doc.object[1].first, "a");
  EXPECT_EQ(doc.object[2].first, "m");
  EXPECT_EQ(doc.NumberOr("z", -1), 1.0);
  const JsonValue* arr = doc.Find("a");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 3u);
  EXPECT_EQ(arr->array[0].type, JsonValue::Type::kBool);
  EXPECT_TRUE(arr->array[0].bool_value);
  EXPECT_TRUE(arr->array[1].is_null());
  EXPECT_EQ(arr->array[2].string_value, "xA");
  const JsonValue* nested = doc.Find("m");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->NumberOr("n", 0), -25.0);
  // Accessor fallbacks for missing/mistyped members.
  EXPECT_EQ(doc.NumberOr("missing", 7.0), 7.0);
  EXPECT_EQ(doc.StringOr("z", "fallback"), "fallback");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsWhatTheValidatorRejects) {
  JsonValue doc;
  std::string error;
  for (const char* bad :
       {"", "{", "[1,]", "{}x", "nul", "01", "\"unterminated"}) {
    EXPECT_FALSE(ParseJson(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonParserTest, NumbersRoundTripIntegers) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson("[0,-1,9007199254740992,1e2]", &doc, &error));
  ASSERT_EQ(doc.array.size(), 4u);
  EXPECT_EQ(doc.array[0].number, 0.0);
  EXPECT_EQ(doc.array[1].number, -1.0);
  EXPECT_EQ(doc.array[2].number, 9007199254740992.0);
  EXPECT_EQ(doc.array[3].number, 100.0);
}

}  // namespace
}  // namespace orq
