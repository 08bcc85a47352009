#ifndef ORQ_ENGINE_PLAN_CACHE_H_
#define ORQ_ENGINE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/rel_expr.h"
#include "common/result.h"
#include "obs/metrics.h"

namespace orq {

/// Plan-cache knobs on EngineOptions. Off by default: caching compiles
/// through the parameterized lane (literals become parameters before
/// normalization), which is deliberately opt-in so the ablation benchmarks
/// and tests keep seeing the classic literal-aware compile.
struct PlanCacheOptions {
  bool enable = false;
  /// Max entries per level (text level and fingerprint level), LRU-evicted.
  int capacity = 128;
};

/// Result of stripping cacheable literals out of a bound tree. The tree is
/// the shared "template": every stripped literal is replaced by a
/// ScalarKind::kParam whose ordinal continues after the statement's
/// explicit `?` parameters, and `values`/`types` record what was stripped
/// (ordinal-aligned, explicit params excluded).
struct ParameterizedTree {
  RelExprPtr root;
  std::vector<Value> values;
  std::vector<DataType> types;
};

/// Replaces every non-NULL int64/double/string/date literal in the tree's
/// scalar payloads (descending into embedded subquery trees) with a
/// parameter node. Bool and NULL literals stay: the normalizer's
/// TRUE-literal and contradiction reasoning depends on seeing them, and
/// they carry one bit — no cache-fragmentation risk. Shared scalar
/// subtrees (e.g. BETWEEN's value) are memoized so sharing survives and
/// each literal is stripped exactly once.
ParameterizedTree ParameterizeLiterals(const RelExprPtr& root,
                                       int first_ordinal);

/// Canonical serialization of a (parameterized) tree: operator kinds,
/// table names, column ids, parameter ordinals, retained literals, and
/// every payload field that affects compilation. Column ids are allocated
/// deterministically by the binder, so two statements that differ only in
/// stripped literals serialize identically — this string (not its hash) is
/// the fingerprint-level cache key, making collisions impossible.
std::string CanonicalizeTree(const RelExpr& root);

/// Substitutes parameter values into a plan template: kParam(i) becomes a
/// literal of types[i]. Coercions: int64 -> double, string -> date (parsed);
/// anything else mismatched is an error. Returns a new tree sharing all
/// parameter-free subtrees.
Result<RelExprPtr> SubstituteParams(const RelExprPtr& root,
                                    const std::vector<Value>& values,
                                    const std::vector<DataType>& types);

/// An optimized plan template plus everything needed to execute it.
/// Immutable once cached; concurrent executions substitute parameters into
/// fresh trees and never touch the template or its ColumnManager. With the
/// cache off, each query compiles a template of its own (no auto
/// parameters, no canonical key).
struct CachedPlan {
  ColumnManagerPtr columns;
  RelExprPtr optimized;  // contains kParam placeholders
  std::vector<ColumnId> output_cols;
  std::vector<std::string> output_names;
  /// All parameter types by ordinal: the statement's explicit `?` params
  /// first, then auto-parameterized literals.
  std::vector<DataType> param_types;
  size_t num_explicit_params = 0;
  /// CanonicalizeTree of the parameterized bound tree + output signature.
  std::string canonical;
  /// FingerprintHex(canonical), computed once when the entry is built;
  /// every observed hit copies it into its QueryObservation. Empty on a
  /// template compiled with the cache off.
  std::string fingerprint;
  int64_t catalog_version = 0;
};

/// Two-level LRU plan cache, keyed on (engine-options subset, catalog
/// version, key string). Level 1 maps exact SQL text to a template plus
/// the literal values stripped from that text — a hit skips even parse and
/// bind (the prepared-statement fast path). Level 2 maps the canonical
/// serialization of the parameterized bound tree — a hit for a
/// never-seen text that shares a shape skips normalize and optimize.
/// Entries compiled under a different catalog version are evicted on
/// lookup (stale plans are never served); capacity pressure evicts LRU.
/// Thread-safe; entries are shared as shared_ptr<const CachedPlan>.
class PlanCache {
 public:
  explicit PlanCache(int capacity)
      : capacity_(capacity < 1 ? 1 : static_cast<size_t>(capacity)) {}

  /// Level-1 lookup. On hit, *auto_values receives the literal values
  /// recorded for this exact text. `metrics` (optional) takes eviction
  /// counts when a stale entry is dropped; hit/miss accounting is the
  /// caller's (a level-1 miss may still hit level 2).
  std::shared_ptr<const CachedPlan> LookupText(
      const std::string& sql, const std::string& options_key,
      int64_t catalog_version, std::vector<Value>* auto_values,
      MetricsRegistry* metrics);

  /// Level-2 lookup by canonical serialization.
  std::shared_ptr<const CachedPlan> LookupCanonical(
      const std::string& canonical, const std::string& options_key,
      int64_t catalog_version, MetricsRegistry* metrics);

  /// Inserts into both levels (the text entry records `auto_values`).
  /// Also used after a level-2 hit to register the new text spelling.
  void Insert(const std::string& sql, const std::string& options_key,
              std::shared_ptr<const CachedPlan> plan,
              std::vector<Value> auto_values, MetricsRegistry* metrics);

  void Clear();

  // Cumulative counters (engine lifetime), for tests and \metrics.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  void CountHit() { hits_.fetch_add(1, std::memory_order_relaxed); }
  void CountMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  size_t text_entries() const;
  size_t canonical_entries() const;

 private:
  struct TextEntry {
    std::shared_ptr<const CachedPlan> plan;
    std::vector<Value> auto_values;
    std::list<std::string>::iterator lru;
  };
  struct CanonicalEntry {
    std::shared_ptr<const CachedPlan> plan;
    std::list<std::string>::iterator lru;
  };

  void CountEvictions(int64_t n, MetricsRegistry* metrics);

  mutable std::mutex mu_;
  const size_t capacity_;
  // Keys are options_key + '\x01' + sql/canonical; entries remember the
  // catalog version they were compiled under and are dropped when it moves.
  std::unordered_map<std::string, TextEntry> text_;
  std::unordered_map<std::string, CanonicalEntry> canonical_;
  std::list<std::string> text_lru_;       // front = most recent
  std::list<std::string> canonical_lru_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace orq

#endif  // ORQ_ENGINE_PLAN_CACHE_H_
