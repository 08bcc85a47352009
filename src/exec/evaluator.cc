#include "exec/evaluator.h"

#include <cmath>

#include "common/str_util.h"

namespace orq {

Evaluator::Evaluator(ScalarExprPtr expr, const std::vector<ColumnId>& layout)
    : expr_(std::move(expr)) {
  for (size_t i = 0; i < layout.size(); ++i) {
    slots_.emplace(layout[i], static_cast<int>(i));
  }
}

Result<Value> Evaluator::Eval(const Row& row, ExecContext* ctx) const {
  return EvalNode(*expr_, row, ctx);
}

Result<bool> Evaluator::EvalPredicate(const Row& row, ExecContext* ctx) const {
  ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*expr_, row, ctx));
  return !v.is_null() && v.type() == DataType::kBool && v.bool_value();
}

Result<Value> EvalArith(ArithOp op, const Value& l, const Value& r,
                        DataType out_type) {
  if (l.is_null() || r.is_null()) return Value::Null(out_type);
  // date +/- integer days
  if (l.type() == DataType::kDate && r.type() == DataType::kInt64) {
    int32_t days = l.date_value();
    int64_t delta = r.int64_value();
    if (op == ArithOp::kAdd) return Value::Date(days + delta);
    if (op == ArithOp::kSub) return Value::Date(days - delta);
    return Status::RuntimeError("invalid date arithmetic");
  }
  if (l.type() == DataType::kDate && r.type() == DataType::kDate &&
      op == ArithOp::kSub) {
    return Value::Int64(l.date_value() - r.date_value());
  }
  if (!IsNumeric(l.type()) || !IsNumeric(r.type())) {
    return Status::RuntimeError("arithmetic on non-numeric values");
  }
  if (l.type() == DataType::kInt64 && r.type() == DataType::kInt64) {
    int64_t a = l.int64_value(), b = r.int64_value();
    switch (op) {
      case ArithOp::kAdd: return Value::Int64(a + b);
      case ArithOp::kSub: return Value::Int64(a - b);
      case ArithOp::kMul: return Value::Int64(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Status::RuntimeError("division by zero");
        return Value::Int64(a / b);
    }
  }
  double a = l.AsDouble(), b = r.AsDouble();
  switch (op) {
    case ArithOp::kAdd: return Value::Double(a + b);
    case ArithOp::kSub: return Value::Double(a - b);
    case ArithOp::kMul: return Value::Double(a * b);
    case ArithOp::kDiv:
      if (b == 0.0) return Status::RuntimeError("division by zero");
      return Value::Double(a / b);
  }
  return Status::Internal("unhandled arithmetic op");
}

Value CompareResult(CompareOp op, int cmp) {
  bool out = false;
  switch (op) {
    case CompareOp::kEq: out = cmp == 0; break;
    case CompareOp::kNe: out = cmp != 0; break;
    case CompareOp::kLt: out = cmp < 0; break;
    case CompareOp::kLe: out = cmp <= 0; break;
    case CompareOp::kGt: out = cmp > 0; break;
    case CompareOp::kGe: out = cmp >= 0; break;
  }
  return Value::Bool(out);
}

Result<Value> Evaluator::EvalNode(const ScalarExpr& node, const Row& row,
                                  ExecContext* ctx) const {
  switch (node.kind) {
    case ScalarKind::kColumnRef: {
      auto it = slots_.find(node.column);
      if (it != slots_.end()) return row[it->second];
      if (ctx != nullptr) {
        auto pit = ctx->params.find(node.column);
        if (pit != ctx->params.end()) return pit->second;
      }
      return Status::Internal("unresolved column #" +
                              std::to_string(node.column));
    }
    case ScalarKind::kLiteral:
      return node.literal;
    case ScalarKind::kAnd: {
      bool saw_null = false;
      for (const auto& child : node.children) {
        ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*child, row, ctx));
        if (v.is_null()) {
          saw_null = true;
        } else if (!v.bool_value()) {
          return Value::Bool(false);
        }
      }
      return saw_null ? Value::Null(DataType::kBool) : Value::Bool(true);
    }
    case ScalarKind::kOr: {
      bool saw_null = false;
      for (const auto& child : node.children) {
        ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*child, row, ctx));
        if (v.is_null()) {
          saw_null = true;
        } else if (v.bool_value()) {
          return Value::Bool(true);
        }
      }
      return saw_null ? Value::Null(DataType::kBool) : Value::Bool(false);
    }
    case ScalarKind::kNot: {
      ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*node.children[0], row, ctx));
      if (v.is_null()) return Value::Null(DataType::kBool);
      return Value::Bool(!v.bool_value());
    }
    case ScalarKind::kCompare: {
      ORQ_ASSIGN_OR_RETURN(Value l, EvalNode(*node.children[0], row, ctx));
      ORQ_ASSIGN_OR_RETURN(Value r, EvalNode(*node.children[1], row, ctx));
      std::optional<int> cmp = l.SqlCompare(r);
      if (!cmp.has_value()) return Value::Null(DataType::kBool);
      return CompareResult(node.cmp, *cmp);
    }
    case ScalarKind::kArith: {
      ORQ_ASSIGN_OR_RETURN(Value l, EvalNode(*node.children[0], row, ctx));
      ORQ_ASSIGN_OR_RETURN(Value r, EvalNode(*node.children[1], row, ctx));
      return EvalArith(node.arith, l, r, node.type);
    }
    case ScalarKind::kNegate: {
      ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*node.children[0], row, ctx));
      if (v.is_null()) return Value::Null(v.type());
      if (v.type() == DataType::kInt64) return Value::Int64(-v.int64_value());
      if (v.type() == DataType::kDouble) {
        return Value::Double(-v.double_value());
      }
      return Status::RuntimeError("negation of non-numeric value");
    }
    case ScalarKind::kCast: {
      ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*node.children[0], row, ctx));
      if (v.is_null()) return Value::Null(DataType::kDouble);
      return Value::Double(static_cast<double>(v.int64_value()));
    }
    case ScalarKind::kIsNull: {
      ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*node.children[0], row, ctx));
      return Value::Bool(v.is_null());
    }
    case ScalarKind::kIsNotNull: {
      ORQ_ASSIGN_OR_RETURN(Value v, EvalNode(*node.children[0], row, ctx));
      return Value::Bool(!v.is_null());
    }
    case ScalarKind::kLike: {
      ORQ_ASSIGN_OR_RETURN(Value text, EvalNode(*node.children[0], row, ctx));
      ORQ_ASSIGN_OR_RETURN(Value pat, EvalNode(*node.children[1], row, ctx));
      if (text.is_null() || pat.is_null()) {
        return Value::Null(DataType::kBool);
      }
      if (text.type() != DataType::kString ||
          pat.type() != DataType::kString) {
        return Status::RuntimeError("LIKE requires strings");
      }
      return Value::Bool(LikeMatch(text.string_value(), pat.string_value()));
    }
    case ScalarKind::kCase: {
      size_t i = 0;
      for (; i + 1 < node.children.size(); i += 2) {
        ORQ_ASSIGN_OR_RETURN(Value cond,
                             EvalNode(*node.children[i], row, ctx));
        if (!cond.is_null() && cond.type() == DataType::kBool &&
            cond.bool_value()) {
          return EvalNode(*node.children[i + 1], row, ctx);
        }
      }
      if (i < node.children.size()) {
        return EvalNode(*node.children[i], row, ctx);
      }
      return Value::Null(node.type);
    }
    case ScalarKind::kInList: {
      ORQ_ASSIGN_OR_RETURN(Value probe, EvalNode(*node.children[0], row, ctx));
      bool saw_null = probe.is_null();
      for (size_t i = 1; i < node.children.size(); ++i) {
        ORQ_ASSIGN_OR_RETURN(Value item,
                             EvalNode(*node.children[i], row, ctx));
        std::optional<int> cmp = probe.SqlCompare(item);
        if (!cmp.has_value()) {
          saw_null = true;
        } else if (*cmp == 0) {
          return Value::Bool(true);
        }
      }
      return saw_null ? Value::Null(DataType::kBool) : Value::Bool(false);
    }
    case ScalarKind::kParam:
      return Status::Internal(
          "unsubstituted parameter $" + std::to_string(node.column) +
          " reached the evaluator (SubstituteParams must run first)");
    default:
      return Status::Internal(
          "subquery node reached the evaluator (Apply introduction must run "
          "first)");
  }
}

}  // namespace orq
