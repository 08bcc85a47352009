#ifndef ORQ_DIFFTEST_HARNESS_H_
#define ORQ_DIFFTEST_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "difftest/oracle.h"

namespace orq {

struct HarnessOptions {
  /// Seeds both the dataset and the query stream.
  uint64_t seed = 20260806;
  int num_queries = 500;
  /// Stop after this many divergences (each one is minimized, which costs
  /// many oracle executions).
  int max_failures = 8;
  /// Print each generated query as it runs (debugging).
  bool verbose = false;
  /// Execution mode per side (ExecOptions::batched): true runs the
  /// columnar engine, false the row-at-a-time reference. Defaults run the
  /// serving mode (columnar) on both sides; reference row vs test columnar
  /// is the columnar oracle.
  bool reference_batched = true;
  bool test_batched = true;
  /// Worker threads per side; 0 runs the classic serial engine. A positive
  /// count turns that side into the morsel-driven parallel engine, so e.g.
  /// reference row-mode vs test parallel columnar is the parallel-vs-serial
  /// oracle.
  int reference_threads = 0;
  int test_threads = 0;
  /// Morsel size for parallel sides — tiny because the difftest tables
  /// are tiny (tens of rows): 8 makes even them split into enough morsels
  /// that workers genuinely interleave claims.
  int morsel_rows = 8;
  /// Per-query deadline applied to each oracle side independently; 0 runs
  /// unbounded. One-sided timeouts score kTimeoutTolerated (the naive
  /// reference is much slower), never a divergence.
  int64_t timeout_ms = 0;
  /// Every Nth query is additionally run instrumented on both engines to
  /// assert the stats invariant TotalRowsOut(plan) == rows_produced (the
  /// per-operator stats tree must account for every row the engine counts).
  /// 0 disables; kept sparse because instrumented re-runs triple the cost
  /// of the checked queries.
  int stats_check_every = 7;
  /// Cached-vs-cold oracle: run every generated query twice through one
  /// plan-cache-enabled engine (first execution compiles and caches, the
  /// second must hit) and assert byte-identical results, a kHit profile
  /// outcome, and TotalRowsOut == rows_produced on the hot path.
  bool plan_cache_check = false;
};

struct HarnessReport {
  struct Failure {
    int query_index = 0;
    Verdict verdict = Verdict::kResultMismatch;
    std::string original_sql;
    std::string minimized_sql;
    std::string detail;        // bag diff / error texts for the minimized query
    std::string naive_explain; // reference-side EXPLAIN ANALYZE
    std::string full_explain;  // rewrite-side EXPLAIN ANALYZE
  };

  uint64_t seed = 0;
  int executed = 0;
  int matches = 0;
  int both_error = 0;
  int cardinality_tolerated = 0;
  int timeout_tolerated = 0;
  std::vector<Failure> failures;
  /// Stats-invariant checks run / violations found (see stats_check_every).
  int stats_checked = 0;
  std::vector<std::string> stats_violations;
  /// Cached-vs-cold checks run / divergences found (see plan_cache_check).
  int plan_cache_checked = 0;
  std::vector<std::string> plan_cache_divergences;

  bool ok() const {
    return failures.empty() && stats_violations.empty() &&
           plan_cache_divergences.empty();
  }
  /// One-paragraph tally plus, for every failure, the minimized reproducer
  /// and both plans — ready to paste into a bug report.
  std::string Summary() const;
};

/// Builds the difftest catalog once per side, then generates and
/// dual-executes `options.num_queries` random queries, minimizing every
/// divergence.
Result<HarnessReport> RunDifftest(const HarnessOptions& options);

}  // namespace orq

#endif  // ORQ_DIFFTEST_HARNESS_H_
