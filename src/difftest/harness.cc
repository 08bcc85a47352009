#include "difftest/harness.h"

#include <cstdio>
#include <memory>

#include "difftest/dataset.h"
#include "difftest/minimize.h"
#include "difftest/qgen.h"

namespace orq {

namespace {

/// EXPLAIN ANALYZE when it works, plain EXPLAIN otherwise (e.g. when the
/// minimized query errors at run time), error text as a last resort.
std::string ExplainSide(QueryEngine& engine, const std::string& sql) {
  Result<std::string> analyzed = engine.ExplainAnalyze(sql);
  if (analyzed.ok()) return *analyzed;
  Result<std::string> plain = engine.Explain(sql);
  if (plain.ok()) return *plain + "(execution failed: " +
                         analyzed.status().ToString() + ")\n";
  return "explain failed: " + plain.status().ToString() + "\n";
}

/// Runs `sql` instrumented on `engine` and checks that the per-operator
/// stats tree accounts for every row the engine counted. A mismatch means
/// an operator bypassed its instrumented shell (or the collector attributed
/// rows to a stale operator) — exactly the regression the observability
/// layer must never ship with.
void CheckStatsInvariant(QueryEngine& engine, const char* side,
                         const std::string& sql, int query_index,
                         HarnessReport* report) {
  constexpr int kMaxViolations = 8;
  if (static_cast<int>(report->stats_violations.size()) >= kMaxViolations) {
    return;
  }
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(sql);
  // Runtime errors are the oracle's department; the invariant only
  // applies to queries that execute.
  if (!analyzed.ok()) return;
  ++report->stats_checked;
  const int64_t stats_rows = TotalRowsOut(analyzed->plan);
  const int64_t engine_rows = analyzed->result.rows_produced;
  if (stats_rows != engine_rows) {
    report->stats_violations.push_back(
        "query #" + std::to_string(query_index) + " (" + side +
        "): stats TotalRowsOut=" + std::to_string(stats_rows) +
        " != rows_produced=" + std::to_string(engine_rows) + "  sql: " + sql);
  }
}

/// Runs `sql` twice through one plan-cache-enabled engine: the first run
/// compiles the parameterized template cold, the second must serve it from
/// the cache. Both runs substitute the same literal values into the same
/// template, so any result difference is a caching bug, not noise — the
/// comparison is byte-level and order-sensitive (the engine is serial).
void CheckPlanCache(QueryEngine& engine, const std::string& sql,
                    int query_index, HarnessReport* report) {
  constexpr int kMaxDivergences = 8;
  if (static_cast<int>(report->plan_cache_divergences.size()) >=
      kMaxDivergences) {
    return;
  }
  Result<QueryResult> cold = engine.Execute(sql);
  Result<AnalyzedQuery> hot = engine.ExecuteAnalyzed(sql);
  ++report->plan_cache_checked;
  const std::string tag = "query #" + std::to_string(query_index);
  if (!cold.ok() || !hot.ok()) {
    if (cold.ok() != hot.ok()) {
      report->plan_cache_divergences.push_back(
          tag + ": cold/hot error mismatch: cold=" +
          (cold.ok() ? std::string("ok") : cold.status().ToString()) +
          " hot=" +
          (hot.ok() ? std::string("ok") : hot.status().ToString()) +
          "  sql: " + sql);
    }
    return;
  }
  if (hot->profile.cache != CacheOutcome::kHit) {
    report->plan_cache_divergences.push_back(
        tag + ": second execution was not a cache hit  sql: " + sql);
    return;
  }
  const QueryResult& a = cold.value();
  const QueryResult& b = hot->result;
  if (a.column_names != b.column_names || a.column_types != b.column_types) {
    report->plan_cache_divergences.push_back(
        tag + ": cached column names or types differ  sql: " + sql);
    return;
  }
  if (a.rows.size() != b.rows.size()) {
    report->plan_cache_divergences.push_back(
        tag + ": cold returned " + std::to_string(a.rows.size()) +
        " rows, cached " + std::to_string(b.rows.size()) + "  sql: " + sql);
    return;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (CanonicalRow(a.rows[r]) != CanonicalRow(b.rows[r])) {
      report->plan_cache_divergences.push_back(
          tag + ": row " + std::to_string(r) + " differs: cold=" +
          CanonicalRow(a.rows[r]) + " cached=" + CanonicalRow(b.rows[r]) +
          "  sql: " + sql);
      return;
    }
  }
  const int64_t stats_rows = TotalRowsOut(hot->plan);
  if (stats_rows != b.rows_produced) {
    report->plan_cache_divergences.push_back(
        tag + ": hot-path stats TotalRowsOut=" + std::to_string(stats_rows) +
        " != rows_produced=" + std::to_string(b.rows_produced) +
        "  sql: " + sql);
  }
}

}  // namespace

std::string HarnessReport::Summary() const {
  std::string out = "difftest: seed=" + std::to_string(seed) +
                    " executed=" + std::to_string(executed) +
                    " match=" + std::to_string(matches) +
                    " both-error=" + std::to_string(both_error) +
                    " cardinality-tolerated=" +
                    std::to_string(cardinality_tolerated) +
                    " timeout-tolerated=" + std::to_string(timeout_tolerated) +
                    " divergences=" + std::to_string(failures.size()) +
                    " stats-checked=" + std::to_string(stats_checked) +
                    " stats-violations=" +
                    std::to_string(stats_violations.size()) +
                    " plan-cache-checked=" +
                    std::to_string(plan_cache_checked) +
                    " plan-cache-divergences=" +
                    std::to_string(plan_cache_divergences.size()) + "\n";
  for (const std::string& violation : stats_violations) {
    out += "  STATS " + violation + "\n";
  }
  for (const std::string& divergence : plan_cache_divergences) {
    out += "  PLAN-CACHE " + divergence + "\n";
  }
  for (const Failure& f : failures) {
    out += "\n=== divergence at query #" + std::to_string(f.query_index) +
           " (" + VerdictName(f.verdict) + ") ===\n";
    out += "original:  " + f.original_sql + "\n";
    out += "minimized: " + f.minimized_sql + "\n";
    if (!f.detail.empty()) out += f.detail + "\n";
    out += "--- reference plan (naive) ---\n" + f.naive_explain;
    out += "--- rewritten plan (full) ---\n" + f.full_explain;
  }
  return out;
}

Result<HarnessReport> RunDifftest(const HarnessOptions& options) {
  Catalog catalog;
  ORQ_RETURN_IF_ERROR(BuildDifftestCatalog(&catalog, options.seed));
  EngineOptions naive_options = NaiveReferenceOptions();
  naive_options.exec.batched = options.reference_batched;
  naive_options.exec.num_threads = options.reference_threads;
  naive_options.exec.morsel_rows = options.morsel_rows;
  EngineOptions full_options = EngineOptions::Full();
  full_options.exec.batched = options.test_batched;
  full_options.exec.num_threads = options.test_threads;
  full_options.exec.morsel_rows = options.morsel_rows;
  DualOracle oracle(&catalog, std::move(naive_options),
                    std::move(full_options));
  oracle.set_timeout_ms(options.timeout_ms);
  QueryGenerator generator(options.seed);

  // Cached-vs-cold oracle side: serial (deterministic row order, so the
  // comparison can be order-sensitive) and full-rewrite, with the cache on.
  std::unique_ptr<QueryEngine> cache_engine;
  if (options.plan_cache_check) {
    EngineOptions cache_options = EngineOptions::Full();
    cache_options.exec.batched = options.test_batched;
    cache_options.plan_cache.enable = true;
    cache_engine = std::make_unique<QueryEngine>(&catalog, cache_options);
  }

  HarnessReport report;
  report.seed = options.seed;
  for (int i = 0; i < options.num_queries; ++i) {
    QuerySpec spec = generator.Generate();
    std::string sql = RenderSql(spec);
    if (options.verbose) {
      std::fprintf(stderr, "[difftest] #%d: %s\n", i, sql.c_str());
    }
    DualOutcome outcome = oracle.Run(sql);
    ++report.executed;
    if (options.stats_check_every > 0 &&
        i % options.stats_check_every == 0 &&
        !IsDivergence(outcome.verdict)) {
      CheckStatsInvariant(oracle.naive_engine(), "naive", sql, i, &report);
      CheckStatsInvariant(oracle.full_engine(), "full", sql, i, &report);
    }
    if (cache_engine && !IsDivergence(outcome.verdict)) {
      CheckPlanCache(*cache_engine, sql, i, &report);
    }
    switch (outcome.verdict) {
      case Verdict::kMatch:
        ++report.matches;
        break;
      case Verdict::kBothError:
        ++report.both_error;
        break;
      case Verdict::kCardinalityTolerated:
        ++report.cardinality_tolerated;
        break;
      case Verdict::kTimeoutTolerated:
        ++report.timeout_tolerated;
        break;
      case Verdict::kResultMismatch:
      case Verdict::kErrorMismatch:
      case Verdict::kTypeMismatch: {
        HarnessReport::Failure failure;
        failure.query_index = i;
        failure.original_sql = sql;
        QuerySpec minimized = MinimizeDivergence(spec, &oracle);
        failure.minimized_sql = RenderSql(minimized);
        DualOutcome final_outcome = oracle.Run(failure.minimized_sql);
        // Minimization preserves divergence by construction, but record
        // the final verdict it landed on.
        failure.verdict = IsDivergence(final_outcome.verdict)
                              ? final_outcome.verdict
                              : outcome.verdict;
        failure.detail = IsDivergence(final_outcome.verdict)
                             ? final_outcome.detail
                             : outcome.detail;
        failure.naive_explain =
            ExplainSide(oracle.naive_engine(), failure.minimized_sql);
        failure.full_explain =
            ExplainSide(oracle.full_engine(), failure.minimized_sql);
        report.failures.push_back(std::move(failure));
        if (static_cast<int>(report.failures.size()) >=
            options.max_failures) {
          return report;
        }
        break;
      }
    }
  }
  return report;
}

}  // namespace orq
