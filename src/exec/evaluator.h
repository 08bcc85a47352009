#ifndef ORQ_EXEC_EVALUATOR_H_
#define ORQ_EXEC_EVALUATOR_H_

#include <vector>

#include "algebra/scalar_expr.h"
#include "common/result.h"
#include "exec/exec.h"

namespace orq {

/// Binary arithmetic with SQL semantics: NULL propagation, date ± days and
/// date − date, int64 arithmetic with division-by-zero errors, and
/// int64→double promotion. Shared by the row evaluator and the columnar
/// kernels' constant folding so the two cannot drift.
Result<Value> EvalArith(ArithOp op, const Value& l, const Value& r,
                        DataType out_type);

/// Maps a three-way comparison result to the boolean a CompareOp demands.
Value CompareResult(CompareOp op, int cmp);

/// Compiles a scalar expression against an input layout and evaluates it
/// with SQL three-valued-logic semantics. Column references not found in
/// the layout resolve through ExecContext::params (correlated parameters).
class Evaluator {
 public:
  Evaluator() = default;
  Evaluator(ScalarExprPtr expr, const std::vector<ColumnId>& layout);

  /// Evaluates against `row` (positionally matching the layout).
  Result<Value> Eval(const Row& row, ExecContext* ctx) const;

  /// Convenience: evaluates as a predicate; NULL counts as not-TRUE.
  Result<bool> EvalPredicate(const Row& row, ExecContext* ctx) const;

  const ScalarExprPtr& expr() const { return expr_; }

 private:
  Result<Value> EvalNode(const ScalarExpr& node, const Row& row,
                         ExecContext* ctx) const;

  ScalarExprPtr expr_;
  std::unordered_map<ColumnId, int> slots_;
};

}  // namespace orq

#endif  // ORQ_EXEC_EVALUATOR_H_
