#ifndef ORQ_NORMALIZE_FOLD_H_
#define ORQ_NORMALIZE_FOLD_H_

#include "algebra/rel_expr.h"

namespace orq {

/// Constant-folds a scalar expression: literal-only subtrees are evaluated
/// (run-time errors such as division by zero are left in place to fire at
/// execution), AND/OR collapse around TRUE/FALSE, double negation drops.
/// With `not_null`, the columns known non-NULL wherever `expr` is
/// evaluated, `e IS NULL` is FALSE when e is such a column, a non-NULL
/// literal, or a comparison of two such operands whose types compare
/// (Comparable): NOT IN's `x = y OR (x = y) IS NULL` over non-NULL x and
/// y folds to `x = y`.
ScalarExprPtr FoldScalar(const ScalarExprPtr& expr,
                         const ColumnSet* not_null = nullptr);

/// True when the subtree provably produces no rows (its canonical form is
/// a Select with a constant FALSE/NULL predicate).
bool IsProvablyEmpty(const RelExprPtr& node);

/// Query-normalization simplifications of paper section 4: folds constants
/// in every predicate/projection (a Select's or Join's predicate against
/// the NotNullColumns of its inputs), and detects + propagates empty
/// subexpressions (an inner join with an empty input is empty, empty
/// UNION ALL branches are dropped, an outer join with an empty inner side
/// degenerates to NULL-padding, an antijoin with an empty right side is
/// its left input, ...). Empty subtrees are canonicalized to
/// Select(FALSE)(child); the physical builder compiles that shape to a
/// zero-row operator without even opening the child.
RelExprPtr FoldAndDetectEmpty(const RelExprPtr& root,
                              ColumnManager* columns);

}  // namespace orq

#endif  // ORQ_NORMALIZE_FOLD_H_
