#ifndef ORQ_DIFFTEST_ORACLE_H_
#define ORQ_DIFFTEST_ORACLE_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"

namespace orq {

/// Engine configuration for the reference side of the differential oracle:
/// the query runs exactly as bound — Apply executed literally per outer
/// row, no correlation removal, no outer-join simplification, no predicate
/// pushdown, no cost-based optimization, nested-loops joins only, no index
/// seeks. Slow but semantically transparent.
EngineOptions NaiveReferenceOptions();

enum class Verdict {
  /// Both sides succeeded and produced the same bag of rows.
  kMatch,
  /// Both sides failed with an error (any error): semantics agree.
  kBothError,
  /// Exactly one side reported a cardinality violation. Evaluation order
  /// of predicates is unspecified, so a plan may or may not pull the
  /// second row out of a Max1row guard; tolerated, not a divergence.
  kCardinalityTolerated,
  /// Exactly one side hit the oracle's per-query deadline (the naive
  /// reference is often orders of magnitude slower). A timeout says
  /// nothing about semantics; tolerated, not a divergence.
  kTimeoutTolerated,
  /// Both sides succeeded but the bags differ. A rewrite bug.
  kResultMismatch,
  /// One side succeeded and the other failed (non-cardinality error).
  kErrorMismatch,
  /// A side returned a non-NULL value whose type is not its column's
  /// bound type (QueryResult::column_types).
  kTypeMismatch,
};

inline bool IsDivergence(Verdict v) {
  return v == Verdict::kResultMismatch || v == Verdict::kErrorMismatch ||
         v == Verdict::kTypeMismatch;
}

/// The first non-NULL cell of `result` whose type is not its column's,
/// described; empty when every cell has its column's type.
std::string CheckColumnTypes(const QueryResult& result);

const char* VerdictName(Verdict v);

/// Outcome of one dual execution.
struct DualOutcome {
  Verdict verdict = Verdict::kMatch;
  Status naive_status = Status::OK();
  Status full_status = Status::OK();
  /// Canonicalized sorted bags (present when the respective side succeeded).
  std::vector<std::string> naive_bag;
  std::vector<std::string> full_bag;
  /// Human-readable explanation of a mismatch (first differing rows, bag
  /// sizes, error texts).
  std::string detail;
};

/// Runs every query on two QueryEngine instances — the naive reference and
/// the full rewrite pipeline — and compares results as bags.
class DualOracle {
 public:
  explicit DualOracle(Catalog* catalog)
      : DualOracle(catalog, NaiveReferenceOptions(), EngineOptions::Full()) {}

  /// Explicit per-side configurations over one catalog — used to
  /// cross-check execution modes (e.g. row-at-a-time reference vs
  /// columnar test engine).
  DualOracle(Catalog* catalog, EngineOptions naive_options,
             EngineOptions full_options)
      : naive_(catalog, std::move(naive_options)),
        full_(catalog, std::move(full_options)) {}

  DualOutcome Run(const std::string& sql);

  /// Per-query deadline applied to each side independently; 0 (default)
  /// runs unbounded. A query that times out on one side only is scored
  /// kTimeoutTolerated, never a divergence.
  void set_timeout_ms(int64_t timeout_ms) { timeout_ms_ = timeout_ms; }

  /// The full-pipeline engine (for EXPLAIN dumps on divergences).
  QueryEngine& full_engine() { return full_; }
  QueryEngine& naive_engine() { return naive_; }

 private:
  QueryEngine naive_;
  QueryEngine full_;
  int64_t timeout_ms_ = 0;
};

/// Canonical row text used for bag comparison. NULL renders as "∅";
/// numerics (int64/double) render through %.9g so Int64(5) and Double(5.0)
/// coincide and aggregate-reassociation FP noise below ~9 significant
/// digits is absorbed; -0.0 renders as 0.
std::string CanonicalRow(const Row& row);

/// Sorted canonical bag for a result.
std::vector<std::string> CanonicalBag(const QueryResult& result);

}  // namespace orq

#endif  // ORQ_DIFFTEST_ORACLE_H_
