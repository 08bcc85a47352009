#ifndef ORQ_EXEC_VECTOR_KERNELS_H_
#define ORQ_EXEC_VECTOR_KERNELS_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/scalar_expr.h"
#include "common/result.h"
#include "exec/column_batch.h"
#include "exec/evaluator.h"
#include "exec/exec.h"

namespace orq {

/// Column-wise key hashing, RowHash-compatible: seed every selected row
/// with RowHash's initial value, then fold key columns in left-to-right
/// with HashCombineColumn. The result for row i equals
/// RowHash{}(decoded key row i), so columnar probes and KeyTables
/// built from Rows agree on buckets.
void InitKeyHashes(const ColumnBatch& batch, std::vector<size_t>* hashes);
void HashCombineColumn(const ColumnBatch& batch, const ColumnVec& col,
                       std::vector<size_t>* hashes);

/// Truth of one element under Value::bool_value semantics (int payload
/// != 0; doubles and strings read the zero int payload, i.e. false):
/// -1 = NULL, 0 = not-true, 1 = true. This is exactly how the row
/// engine's kAnd/kOr treat operand values.
inline int PredTruthElem(const ColumnVec& c, uint32_t i) {
  if (c.IsNull(i)) return -1;
  return c.rep() == ColumnRep::kInts ? (c.IntAt(i) != 0 ? 1 : 0) : 0;
}

/// Compiles a scalar expression for column-at-a-time evaluation.
///
/// vectorizable() accepts exactly the node kinds whose evaluation cannot
/// reach a runtime error the row engine wouldn't also reach per element:
/// column refs, literals, AND/OR/NOT, comparisons, arithmetic except
/// division (the one error site — division by zero — in an otherwise
/// statically-typed tree) over operand types it has a kernel for, numeric
/// negation, the int64 -> double cast, IS [NOT] NULL. Everything else
/// (LIKE, CASE, IN-lists, subquery remnants) stays on the row evaluator,
/// which EvalOrFallback runs per decoded row.
///
/// Eval runs over the batch's selected rows and returns a column of the
/// expression's type indexed by physical row position (unselected slots
/// hold garbage), valid until the next Eval call on this instance.
class ColumnarEvaluator {
 public:
  ColumnarEvaluator() = default;

  void Compile(ScalarExprPtr expr, const std::vector<ColumnId>& layout);
  bool vectorizable() const { return vectorizable_; }
  const ScalarExprPtr& expr() const { return expr_; }

  Result<const ColumnVec*> Eval(const ColumnBatch& batch, ExecContext* ctx);

  /// Eval when vectorizable(); otherwise runs `row_eval` (the row
  /// Evaluator of the same expression) over each decoded selected row and
  /// scatters the values into a column of the expression's type. Either
  /// result lives until the next call.
  Result<const ColumnVec*> EvalOrFallback(const ColumnBatch& batch,
                                          const Evaluator& row_eval,
                                          ExecContext* ctx);

 private:
  Result<const ColumnVec*> EvalNode(const ScalarExpr& e,
                                    const ColumnBatch& batch,
                                    ExecContext* ctx);
  const Value* ConstOf(const ScalarExpr& e, ExecContext* ctx) const;
  /// `v` at every live row, in a column of `type`.
  Result<const ColumnVec*> Broadcast(const Value& v, DataType type,
                                     const ColumnBatch& batch);
  const ColumnVec* AllNull(DataType type, const ColumnBatch& batch);
  ColumnVec* NewScratch();

  Status CompareNode(const ScalarExpr& e, const ColumnBatch& batch,
                     ExecContext* ctx, ColumnVec* out);
  Status ArithNode(const ScalarExpr& e, const ColumnBatch& batch,
                   ExecContext* ctx, ColumnVec* out);

  bool CheckVectorizable(const ScalarExpr& e) const;

  ScalarExprPtr expr_;
  std::unordered_map<ColumnId, int> slots_;
  bool vectorizable_ = false;
  /// Per-node result storage, reused across batches. unique_ptr entries so
  /// pointers handed out for earlier nodes survive pool growth.
  std::vector<std::unique_ptr<ColumnVec>> pool_;
  size_t pool_pos_ = 0;
  ColumnVec fallback_;  // EvalOrFallback's per-row results
  Row decode_;          // EvalOrFallback's decoded-row scratch
};

}  // namespace orq

#endif  // ORQ_EXEC_VECTOR_KERNELS_H_
