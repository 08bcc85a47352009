#include "algebra/scalar_expr.h"

namespace orq {

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kEq;
    case CompareOp::kNe: return CompareOp::kNe;
    case CompareOp::kLt: return CompareOp::kGt;
    case CompareOp::kLe: return CompareOp::kGe;
    case CompareOp::kGt: return CompareOp::kLt;
    case CompareOp::kGe: return CompareOp::kLe;
  }
  return op;
}

CompareOp NegateCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return CompareOp::kNe;
    case CompareOp::kNe: return CompareOp::kEq;
    case CompareOp::kLt: return CompareOp::kGe;
    case CompareOp::kLe: return CompareOp::kGt;
    case CompareOp::kGt: return CompareOp::kLe;
    case CompareOp::kGe: return CompareOp::kLt;
  }
  return op;
}

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "<>";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}

std::string ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "?";
}

bool ScalarExpr::HasSubquery() const {
  if (rel != nullptr) return true;
  for (const auto& child : children) {
    if (child->HasSubquery()) return true;
  }
  return false;
}

namespace {

ScalarExprPtr NewNode(ScalarKind kind, std::vector<ScalarExprPtr> children,
                      DataType type) {
  auto node = std::make_shared<ScalarExpr>();
  node->kind = kind;
  node->children = std::move(children);
  node->type = type;
  return node;
}

DataType ArithResultType(ArithOp op, DataType l, DataType r) {
  if (op == ArithOp::kDiv) {
    // SQL integer division truncates, but for optimizer-friendliness (avg
    // decomposition) we compute division in double when either side is
    // double; int/int stays int (truncating).
    if (l == DataType::kInt64 && r == DataType::kInt64) return DataType::kInt64;
    return DataType::kDouble;
  }
  // date - date -> int64 days; date +/- int -> date
  if (op == ArithOp::kSub && l == DataType::kDate && r == DataType::kDate) {
    return DataType::kInt64;
  }
  if (l == DataType::kDate || r == DataType::kDate) return DataType::kDate;
  if (l == DataType::kDouble || r == DataType::kDouble) {
    return DataType::kDouble;
  }
  return DataType::kInt64;
}

}  // namespace

ScalarExprPtr CRef(ColumnId id, DataType type) {
  auto node = NewNode(ScalarKind::kColumnRef, {}, type);
  node->column = id;
  return node;
}

ScalarExprPtr CRef(const ColumnManager& mgr, ColumnId id) {
  return CRef(id, mgr.type(id));
}

ScalarExprPtr Lit(Value v) {
  auto node = NewNode(ScalarKind::kLiteral, {}, v.type());
  node->literal = std::move(v);
  return node;
}

ScalarExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ScalarExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ScalarExprPtr LitString(std::string s) {
  return Lit(Value::String(std::move(s)));
}
ScalarExprPtr LitBool(bool b) { return Lit(Value::Bool(b)); }
ScalarExprPtr LitNull(DataType type) { return Lit(Value::Null(type)); }

ScalarExprPtr MakeParam(int ordinal, DataType type) {
  auto node = NewNode(ScalarKind::kParam, {}, type);
  node->column = ordinal;
  return node;
}

ScalarExprPtr TrueLiteral() { return LitBool(true); }

ScalarExprPtr MakeCompare(CompareOp op, ScalarExprPtr l, ScalarExprPtr r) {
  auto node = NewNode(ScalarKind::kCompare, {std::move(l), std::move(r)},
                      DataType::kBool);
  node->cmp = op;
  return node;
}

ScalarExprPtr Eq(ScalarExprPtr l, ScalarExprPtr r) {
  return MakeCompare(CompareOp::kEq, std::move(l), std::move(r));
}

ScalarExprPtr MakeArith(ArithOp op, ScalarExprPtr l, ScalarExprPtr r) {
  DataType type = ArithResultType(op, l->type, r->type);
  auto node =
      NewNode(ScalarKind::kArith, {std::move(l), std::move(r)}, type);
  node->arith = op;
  return node;
}

ScalarExprPtr MakeNot(ScalarExprPtr e) {
  return NewNode(ScalarKind::kNot, {std::move(e)}, DataType::kBool);
}

ScalarExprPtr MakeIsNull(ScalarExprPtr e) {
  return NewNode(ScalarKind::kIsNull, {std::move(e)}, DataType::kBool);
}

ScalarExprPtr MakeIsNotNull(ScalarExprPtr e) {
  return NewNode(ScalarKind::kIsNotNull, {std::move(e)}, DataType::kBool);
}

ScalarExprPtr MakeNegate(ScalarExprPtr e) {
  DataType type = e->type;
  return NewNode(ScalarKind::kNegate, {std::move(e)}, type);
}

ScalarExprPtr MakeCast(ScalarExprPtr e) {
  if (e->kind == ScalarKind::kLiteral) {
    return e->literal.is_null()
               ? LitNull(DataType::kDouble)
               : LitDouble(static_cast<double>(e->literal.int64_value()));
  }
  return NewNode(ScalarKind::kCast, {std::move(e)}, DataType::kDouble);
}

ScalarExprPtr MakeLike(ScalarExprPtr value, ScalarExprPtr pattern) {
  return NewNode(ScalarKind::kLike, {std::move(value), std::move(pattern)},
                 DataType::kBool);
}

ScalarExprPtr MakeAnd(std::vector<ScalarExprPtr> conjuncts) {
  if (conjuncts.empty()) return TrueLiteral();
  if (conjuncts.size() == 1) return conjuncts[0];
  return NewNode(ScalarKind::kAnd, std::move(conjuncts), DataType::kBool);
}

ScalarExprPtr MakeAnd2(ScalarExprPtr a, ScalarExprPtr b) {
  return MakeAnd({std::move(a), std::move(b)});
}

ScalarExprPtr MakeOr(std::vector<ScalarExprPtr> disjuncts) {
  if (disjuncts.empty()) return LitBool(false);
  if (disjuncts.size() == 1) return disjuncts[0];
  return NewNode(ScalarKind::kOr, std::move(disjuncts), DataType::kBool);
}

ScalarExprPtr MakeCase(std::vector<ScalarExprPtr> children, DataType type) {
  return NewNode(ScalarKind::kCase, std::move(children), type);
}

ScalarExprPtr MakeInList(ScalarExprPtr probe,
                         std::vector<ScalarExprPtr> list) {
  std::vector<ScalarExprPtr> children;
  children.push_back(std::move(probe));
  for (auto& e : list) children.push_back(std::move(e));
  return NewNode(ScalarKind::kInList, std::move(children), DataType::kBool);
}

ScalarExprPtr MakeScalarSubquery(RelExprPtr rel, DataType type) {
  auto node = NewNode(ScalarKind::kScalarSubquery, {}, type);
  node->rel = std::move(rel);
  return node;
}

ScalarExprPtr MakeExists(RelExprPtr rel, bool negated) {
  auto node = NewNode(ScalarKind::kExistsSubquery, {}, DataType::kBool);
  node->rel = std::move(rel);
  node->negated = negated;
  return node;
}

ScalarExprPtr MakeInSubquery(ScalarExprPtr probe, RelExprPtr rel,
                             bool negated) {
  auto node = NewNode(ScalarKind::kInSubquery, {std::move(probe)},
                      DataType::kBool);
  node->rel = std::move(rel);
  node->negated = negated;
  return node;
}

ScalarExprPtr MakeQuantified(CompareOp op, Quantifier q, ScalarExprPtr left,
                             RelExprPtr rel) {
  auto node = NewNode(ScalarKind::kQuantifiedCompare, {std::move(left)},
                      DataType::kBool);
  node->cmp = op;
  node->quantifier = q;
  node->rel = std::move(rel);
  return node;
}

}  // namespace orq
