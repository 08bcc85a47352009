#ifndef ORQ_OPT_PHYSICAL_H_
#define ORQ_OPT_PHYSICAL_H_

#include "algebra/rel_expr.h"
#include "common/result.h"
#include "exec/ops.h"

namespace orq {

class CostModel;

/// Implementation choices for the logical -> physical translation.
struct PhysicalBuildOptions {
  /// Use hash joins for equi-joins (otherwise nested loops).
  bool use_hash_join = true;
  /// Turn Select-over-Get with key-equality into index seeks when a
  /// matching index exists, and an Apply over such an inner (keyed on the
  /// Apply's outer columns) into an index join — the index-lookup-join of
  /// paper section 4.
  bool use_index_seek = true;
  /// When > 0, wrap the topmost parallel-eligible subtree in an Exchange
  /// over this many replicated plan instances (morsel-driven execution).
  /// Eligible subtrees are closed-form Get/Select/Project/hash-Join/
  /// GroupBy pipelines: no correlation, no segments, no DISTINCT or
  /// Max1Row aggregates. 0 compiles the classic serial plan.
  int num_threads = 0;
};

/// Translates a logical tree into an executable plan. Each join runs as
/// the operator ChooseJoin (join_choice.h) picks; Apply executes as an
/// index join when its inner is an index-served Select over Get, else as
/// rebinding nested loops.
/// (The cost-based optimizer produces the logical tree; see optimizer.h.)
///
/// When `cost` is supplied, each physical operator implementing a logical
/// node is annotated with that node's estimated rows/cost so EXPLAIN
/// ANALYZE can print actual-vs-estimated side by side. Auxiliary operators
/// the translation inserts (e.g. alignment projections) stay unannotated.
Result<PhysicalOpPtr> BuildPhysicalPlan(const RelExprPtr& logical,
                                        const ColumnManager& columns,
                                        const PhysicalBuildOptions& options,
                                        CostModel* cost = nullptr);

}  // namespace orq

#endif  // ORQ_OPT_PHYSICAL_H_
