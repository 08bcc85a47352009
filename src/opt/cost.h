#ifndef ORQ_OPT_COST_H_
#define ORQ_OPT_COST_H_

#include <map>

#include "algebra/rel_expr.h"
#include "catalog/catalog.h"

namespace orq {

/// Cardinality and cost estimate for a (sub)plan. Costs are abstract work
/// units roughly proportional to rows touched; they only need to rank
/// alternatives consistently.
struct PlanEstimate {
  double rows = 0.0;
  double cost = 0.0;
};

/// Selectivity the model gives a join conjunct other than a
/// column = column equality.
inline constexpr double kJoinResidualSelectivity = 0.4;

/// Selectivity of a column = column join conjunct: one over the larger
/// side's distinct count, each side's count capped by its estimated rows.
double EquiJoinSelectivity(double left_distinct, double left_rows,
                           double right_distinct, double right_rows);

/// Work of one join operator over its inputs' estimates. With an equi key
/// (`hash`) it probes the left input and builds the right; without one it
/// nests over every pair. Both pay for every output row.
double JoinOperatorCost(const PlanEstimate& left, const PlanEstimate& right,
                        double out_rows, bool hash);

/// The conjuncts of `predicate` that equate a column of the Get `get` to
/// an expression over other columns: the key an index probe of `get`'s
/// table would use (table ordinals), and how many other conjuncts remain.
struct ProbeKeys {
  std::vector<int> ordinals;
  int residual = 0;
};
ProbeKeys MatchProbeKeys(const RelExpr& get, const ScalarExprPtr& predicate);

/// Cardinality estimation + costing over logical trees. The model assumes
/// the physical mapping of physical.cc: each join runs as the operator
/// ChooseJoin (join_choice.h) picks, correlated applies re-execute their
/// inner per outer row with index lookups priced through the catalog's
/// indexes, aggregations hash.
class CostModel {
 public:
  explicit CostModel(Catalog* catalog) : catalog_(catalog) {}

  /// Estimate for a subtree. Cached by node identity.
  const PlanEstimate& Estimate(const RelExprPtr& node);

  /// Estimated number of distinct values of `col` in the subtree's output;
  /// falls back to the subtree's cardinality when untraceable.
  double EstimateDistinct(const RelExprPtr& node, ColumnId col);

  /// Estimated selectivity of a predicate at `node`'s input.
  double EstimateSelectivity(const RelExprPtr& input,
                             const ScalarExprPtr& pred);

 private:
  PlanEstimate Compute(const RelExprPtr& node);
  /// Per-invocation estimate of a correlated inner: parameters are assumed
  /// bound, index lookups priced as bucket-sized scans.
  PlanEstimate EstimateCorrelatedInner(const RelExprPtr& node,
                                       const ColumnSet& params);

  Catalog* catalog_;
  // Keyed by shared_ptr: keeps the nodes alive so addresses are never
  // recycled into stale cache hits.
  std::map<RelExprPtr, PlanEstimate> cache_;
};

}  // namespace orq

#endif  // ORQ_OPT_COST_H_
