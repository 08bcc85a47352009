#ifndef ORQ_ALGEBRA_SCALAR_EXPR_H_
#define ORQ_ALGEBRA_SCALAR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/column.h"
#include "common/value.h"

namespace orq {

struct RelExpr;
using RelExprPtr = std::shared_ptr<RelExpr>;

/// Node kinds of scalar expression trees. The subquery-bearing kinds
/// (kScalarSubquery and later) hold a relational subtree — this is the
/// "mutual recursion" representation of paper section 2.1; Apply
/// introduction (section 2.2) eliminates them before normalization.
enum class ScalarKind {
  kColumnRef,
  kLiteral,
  kAnd,          // n-ary
  kOr,           // n-ary
  kNot,
  kCompare,      // binary, with CompareOp
  kArith,        // binary, with ArithOp
  kNegate,       // unary minus
  kCast,         // int64 -> double widening; `type` is kDouble
  kIsNull,
  kIsNotNull,
  kLike,         // children: value, pattern
  kCase,         // children: when1, then1, ..., [else]
  kInList,       // children: probe, v1, v2, ...
  kParam,        // positional parameter; `column` holds the ordinal
  // --- subquery-bearing kinds (removed by Apply introduction) ---
  kScalarSubquery,     // rel: subquery producing one column
  kExistsSubquery,     // rel; payload `negated` for NOT EXISTS
  kInSubquery,         // child0 = probe; rel; payload `negated` for NOT IN
  kQuantifiedCompare,  // child0 = left operand; rel; cmp + quantifier
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class Quantifier { kAll, kAny };

CompareOp FlipCompare(CompareOp op);     // a op b  ->  b op' a
CompareOp NegateCompare(CompareOp op);   // NOT (a op b) -> a op' b
std::string CompareOpName(CompareOp op);
std::string ArithOpName(ArithOp op);

struct ScalarExpr;
using ScalarExprPtr = std::shared_ptr<ScalarExpr>;

/// A scalar expression node. Nodes are treated as immutable after
/// construction; rewrites build new nodes (structure sharing is fine).
struct ScalarExpr {
  ScalarKind kind;
  std::vector<ScalarExprPtr> children;

  ColumnId column = -1;                  // kColumnRef; kParam ordinal
  Value literal;                         // kLiteral
  CompareOp cmp = CompareOp::kEq;        // kCompare / kQuantifiedCompare
  ArithOp arith = ArithOp::kAdd;         // kArith
  Quantifier quantifier = Quantifier::kAny;  // kQuantifiedCompare
  bool negated = false;                  // kExistsSubquery / kInSubquery
  RelExprPtr rel;                        // subquery kinds
  DataType type = DataType::kBool;       // result type

  bool HasSubquery() const;
};

// ---- Factory helpers (the builder vocabulary used across the library) ----

ScalarExprPtr CRef(ColumnId id, DataType type);
/// Column reference taking its type from the manager.
ScalarExprPtr CRef(const ColumnManager& mgr, ColumnId id);
ScalarExprPtr Lit(Value v);
ScalarExprPtr LitInt(int64_t v);
ScalarExprPtr LitDouble(double v);
ScalarExprPtr LitString(std::string s);
ScalarExprPtr LitBool(bool b);
ScalarExprPtr LitNull(DataType type);
/// Positional parameter placeholder ($ordinal). Opaque to normalization and
/// optimization; SubstituteParams (engine/plan_cache.h) replaces it with a
/// literal before physical build, so execution never sees one.
ScalarExprPtr MakeParam(int ordinal, DataType type);

ScalarExprPtr MakeCompare(CompareOp op, ScalarExprPtr l, ScalarExprPtr r);
ScalarExprPtr Eq(ScalarExprPtr l, ScalarExprPtr r);
ScalarExprPtr MakeArith(ArithOp op, ScalarExprPtr l, ScalarExprPtr r);
ScalarExprPtr MakeNot(ScalarExprPtr e);
ScalarExprPtr MakeIsNull(ScalarExprPtr e);
ScalarExprPtr MakeIsNotNull(ScalarExprPtr e);
ScalarExprPtr MakeNegate(ScalarExprPtr e);
/// Widens an int64 expression to double; a literal folds to a double
/// literal.
ScalarExprPtr MakeCast(ScalarExprPtr e);
ScalarExprPtr MakeLike(ScalarExprPtr value, ScalarExprPtr pattern);
/// n-ary AND; returns TRUE literal when empty, the sole child when unary.
ScalarExprPtr MakeAnd(std::vector<ScalarExprPtr> conjuncts);
ScalarExprPtr MakeAnd2(ScalarExprPtr a, ScalarExprPtr b);
ScalarExprPtr MakeOr(std::vector<ScalarExprPtr> disjuncts);
ScalarExprPtr MakeCase(std::vector<ScalarExprPtr> children, DataType type);
ScalarExprPtr MakeInList(ScalarExprPtr probe, std::vector<ScalarExprPtr> list);

ScalarExprPtr MakeScalarSubquery(RelExprPtr rel, DataType type);
ScalarExprPtr MakeExists(RelExprPtr rel, bool negated);
ScalarExprPtr MakeInSubquery(ScalarExprPtr probe, RelExprPtr rel,
                             bool negated);
ScalarExprPtr MakeQuantified(CompareOp op, Quantifier q, ScalarExprPtr left,
                             RelExprPtr rel);

/// True literal convenience.
ScalarExprPtr TrueLiteral();

}  // namespace orq

#endif  // ORQ_ALGEBRA_SCALAR_EXPR_H_
