#ifndef ORQ_NORMALIZE_PUSHDOWN_H_
#define ORQ_NORMALIZE_PUSHDOWN_H_

#include "algebra/rel_expr.h"
#include "common/result.h"

namespace orq {

/// Predicate pushdown and tree tidying:
///  * merges stacked Selects and drops TRUE predicates,
///  * pushes Selects through Projects (substituting computed columns),
///  * pushes single-side conjuncts below inner joins and the left side of
///    outer joins,
///  * moves single-side conjuncts out of outer/semi/anti join ON clauses:
///    right-only ones into the right input for all three kinds, left-only
///    ones into the left input for semi joins only,
///  * moves filters below GroupBy when all referenced columns are grouping
///    columns (paper section 3.1's filter/GroupBy reorder),
///  * distributes filters into UnionAll branches,
///  * infers the equality closure across join/filter conjuncts (enables
///    SegmentApply detection on Q17-style plans),
///  * merges stacked Projects.
RelExprPtr PushdownPredicates(RelExprPtr root, ColumnManager* columns);

/// Removes columns not needed by ancestors: narrows Get nodes, drops unused
/// Project items and passthrough columns. `needed` for the root is its full
/// output (callers keep the root's output stable).
RelExprPtr PruneColumns(const RelExprPtr& root, ColumnManager* columns);

}  // namespace orq

#endif  // ORQ_NORMALIZE_PUSHDOWN_H_
