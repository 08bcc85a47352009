#include "sql/binder.h"

#include <functional>
#include <map>

#include "algebra/expr_util.h"
#include "common/str_util.h"

namespace orq {

namespace {

bool IsAggregateName(const std::string& name) {
  return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
         EqualsIgnoreCase(name, "min") || EqualsIgnoreCase(name, "max") ||
         EqualsIgnoreCase(name, "avg");
}

bool IsNullLiteral(const ScalarExprPtr& e) {
  return e->kind == ScalarKind::kLiteral && e->literal.is_null();
}

/// Folds type `t` into `*common`, the result type of CASE branches or of
/// a set operation's column under SQL's rules: the first type fixes it,
/// the same type keeps it, int64 with double gives double, and any other
/// pair is an error. Untyped NULL literals take no part.
Status Unify(DataType t, const char* what, DataType* common, bool* typed) {
  if (!*typed || t == *common) {
    *common = t;
    *typed = true;
    return Status::OK();
  }
  if (IsNumeric(t) && IsNumeric(*common)) {
    *common = DataType::kDouble;
    return Status::OK();
  }
  return Status::InvalidArgument(std::string(what) + " mixes " +
                                 DataTypeName(*common) + " and " +
                                 DataTypeName(t));
}

/// `e` as a value of `type`, which Unify made its common type: itself, a
/// NULL literal of `type`, or widened from int64 to double.
ScalarExprPtr Coerce(ScalarExprPtr e, DataType type) {
  if (e->type == type) return e;
  if (IsNullLiteral(e)) return LitNull(type);
  return MakeCast(std::move(e));
}

/// Whether a Project in `rel` computes column `col` as a bare NULL.
bool IsNullColumn(const RelExpr& rel, ColumnId col) {
  for (const ProjectItem& item : rel.proj_items) {
    if (item.output == col) return IsNullLiteral(item.expr);
  }
  for (const RelExprPtr& child : rel.children) {
    if (IsNullColumn(*child, col)) return true;
  }
  return false;
}

}  // namespace

/// Name-resolution scope: the columns visible at one query level, chained to
/// the enclosing level (resolution through `parent` is what correlation is).
struct Binder::Scope {
  struct Entry {
    std::string alias;   // table alias (lower-case)
    std::string name;    // column name (lower-case)
    ColumnId id;
  };
  std::vector<Entry> entries;
  Scope* parent = nullptr;

  void Add(const std::string& alias, const std::string& name, ColumnId id) {
    entries.push_back(Entry{ToLower(alias), ToLower(name), id});
  }

  Result<ColumnId> Resolve(const std::string& qualifier,
                           const std::string& name) const {
    std::string q = ToLower(qualifier);
    std::string n = ToLower(name);
    ColumnId found = -1;
    int hits = 0;
    for (const Entry& e : entries) {
      if (e.name != n) continue;
      if (!q.empty() && e.alias != q) continue;
      found = e.id;
      ++hits;
    }
    if (hits == 1) return found;
    if (hits > 1) {
      return Status::InvalidArgument("ambiguous column: " + name);
    }
    if (parent != nullptr) return parent->Resolve(qualifier, name);
    return Status::NotFound("unknown column: " +
                            (qualifier.empty() ? name : qualifier + "." + name));
  }
};

namespace {

/// Collects aggregate calls while binding expressions of an aggregate query.
struct AggCollector {
  std::vector<AggItem> items;
  ColumnManager* columns = nullptr;

  /// Registers an aggregate; reuses an existing identical item.
  ColumnId Register(AggFunc func, ScalarExprPtr arg, bool distinct,
                    DataType out_type, const std::string& name) {
    for (const AggItem& item : items) {
      if (item.func == func && item.distinct == distinct &&
          ScalarEquals(item.arg, arg)) {
        return item.output;
      }
    }
    ColumnId id = columns->NewColumn(name, out_type, true);
    items.push_back(AggItem{func, std::move(arg), id, distinct});
    return id;
  }
};

}  // namespace

/// Expression binder for one query block.
class ExprBinder {
 public:
  ExprBinder(Binder* binder, Catalog* catalog, ColumnManager* columns,
             Binder::Scope* scope, AggCollector* aggs,
             std::function<Result<BoundQuery>(const SelectStmt&,
                                              Binder::Scope*)>
                 bind_subquery)
      : binder_(binder),
        catalog_(catalog),
        columns_(columns),
        scope_(scope),
        aggs_(aggs),
        bind_subquery_(std::move(bind_subquery)) {}

  Result<ScalarExprPtr> Bind(const AstExpr& ast) {
    switch (ast.kind) {
      case AstExprKind::kColumn: {
        ORQ_ASSIGN_OR_RETURN(ColumnId id,
                             scope_->Resolve(ast.qualifier, ast.name));
        return CRef(*columns_, id);
      }
      case AstExprKind::kLiteral:
        return Lit(ast.literal);
      case AstExprKind::kParam:
        // A parameter only binds where a sibling fixes its type (BindParam);
        // reaching the generic path means the context is type-free.
        return Status::InvalidArgument(
            "cannot infer the type of parameter ?" +
            std::to_string(ast.param_index + 1) +
            " in this context (use it in a comparison, arithmetic, IN, or "
            "BETWEEN against a typed expression)");
      case AstExprKind::kStar:
        return Status::InvalidArgument("'*' is only valid in count(*)");
      case AstExprKind::kBinary:
        return BindBinary(ast);
      case AstExprKind::kUnary: {
        if (ast.op == "NOT" && IsParam(*ast.children[0])) {
          ORQ_ASSIGN_OR_RETURN(
              ScalarExprPtr child,
              BindParam(*ast.children[0], DataType::kBool));
          return MakeNot(std::move(child));
        }
        ORQ_ASSIGN_OR_RETURN(ScalarExprPtr child, Bind(*ast.children[0]));
        if (ast.op == "NOT") return MakeNot(std::move(child));
        return MakeNegate(std::move(child));
      }
      case AstExprKind::kIsNull: {
        ORQ_ASSIGN_OR_RETURN(ScalarExprPtr child, Bind(*ast.children[0]));
        return ast.negated ? MakeIsNotNull(std::move(child))
                           : MakeIsNull(std::move(child));
      }
      case AstExprKind::kFuncCall:
        return BindFunc(ast);
      case AstExprKind::kCase: {
        // First pass binds the non-parameter children in order (column-id
        // allocation for embedded subqueries stays stable); parameters take
        // their types from the bound siblings in a second pass.
        std::vector<ScalarExprPtr> children(ast.children.size());
        for (size_t i = 0; i < ast.children.size(); ++i) {
          if (IsParam(*ast.children[i])) continue;
          ORQ_ASSIGN_OR_RETURN(children[i], Bind(*ast.children[i]));
        }
        // Result type: the common type of the THEN/ELSE branches (Unify);
        // with only NULL literals bound, their type.
        auto is_when = [&](size_t i) {
          return i % 2 == 0 && i + 1 < children.size();
        };
        DataType result_type = DataType::kInt64;
        bool typed = false;
        for (size_t i = 0; i < children.size(); ++i) {
          if (is_when(i) || children[i] == nullptr ||
              IsNullLiteral(children[i])) {
            continue;
          }
          ORQ_RETURN_IF_ERROR(
              Unify(children[i]->type, "CASE", &result_type, &typed));
        }
        for (size_t i = 0; i < children.size() && !typed; ++i) {
          if (!is_when(i) && children[i] != nullptr) {
            result_type = children[i]->type;
            typed = true;
          }
        }
        for (size_t i = 0; i < ast.children.size(); ++i) {
          if (children[i] != nullptr) continue;
          if (!is_when(i) && !typed) {
            return Status::InvalidArgument(
                "cannot infer the type of a CASE branch parameter (no typed "
                "THEN/ELSE branch)");
          }
          ORQ_ASSIGN_OR_RETURN(
              children[i],
              BindParam(*ast.children[i],
                        is_when(i) ? DataType::kBool : result_type));
        }
        for (size_t i = 0; i < children.size(); ++i) {
          if (!is_when(i)) children[i] = Coerce(children[i], result_type);
        }
        return MakeCase(std::move(children), result_type);
      }
      case AstExprKind::kInList: {
        // Probe type from the first non-parameter element when the probe
        // itself is a `?`; element parameters take the probe's type. The
        // non-parameter children bind first, in source order.
        std::vector<ScalarExprPtr> slots(ast.children.size());
        for (size_t i = 0; i < ast.children.size(); ++i) {
          if (IsParam(*ast.children[i])) continue;
          ORQ_ASSIGN_OR_RETURN(slots[i], Bind(*ast.children[i]));
        }
        if (slots[0] == nullptr) {
          DataType probe_type = DataType::kInt64;
          bool typed = false;
          for (size_t i = 1; i < slots.size(); ++i) {
            if (slots[i] != nullptr) {
              probe_type = slots[i]->type;
              typed = true;
              break;
            }
          }
          if (!typed) {
            return Status::InvalidArgument(
                "cannot infer the type of an IN-list of parameters");
          }
          ORQ_ASSIGN_OR_RETURN(slots[0],
                               BindParam(*ast.children[0], probe_type));
        }
        for (size_t i = 1; i < slots.size(); ++i) {
          if (slots[i] != nullptr) continue;
          ORQ_ASSIGN_OR_RETURN(slots[i],
                               BindParam(*ast.children[i], slots[0]->type));
        }
        ScalarExprPtr probe = std::move(slots[0]);
        std::vector<ScalarExprPtr> list(
            std::make_move_iterator(slots.begin() + 1),
            std::make_move_iterator(slots.end()));
        ScalarExprPtr in = MakeInList(std::move(probe), std::move(list));
        return ast.negated ? MakeNot(std::move(in)) : in;
      }
      case AstExprKind::kBetween: {
        // Non-parameter operands bind first; a `?` value takes the type of
        // the first bound bound, and `?` bounds take the value's type.
        std::vector<ScalarExprPtr> slots(3);
        for (size_t i = 0; i < 3; ++i) {
          if (IsParam(*ast.children[i])) continue;
          ORQ_ASSIGN_OR_RETURN(slots[i], Bind(*ast.children[i]));
        }
        if (slots[0] == nullptr) {
          ScalarExprPtr typed =
              slots[1] != nullptr ? slots[1] : slots[2];
          if (typed == nullptr) {
            return Status::InvalidArgument(
                "cannot infer the type of '? BETWEEN ? AND ?'");
          }
          ORQ_ASSIGN_OR_RETURN(slots[0],
                               BindParam(*ast.children[0], typed->type));
        }
        for (size_t i = 1; i < 3; ++i) {
          if (slots[i] != nullptr) continue;
          ORQ_ASSIGN_OR_RETURN(slots[i],
                               BindParam(*ast.children[i], slots[0]->type));
        }
        ScalarExprPtr range = MakeAnd2(
            MakeCompare(CompareOp::kGe, slots[0], std::move(slots[1])),
            MakeCompare(CompareOp::kLe, slots[0], std::move(slots[2])));
        return ast.negated ? MakeNot(std::move(range)) : range;
      }
      case AstExprKind::kScalarSubquery: {
        ORQ_ASSIGN_OR_RETURN(BoundQuery sub, BindSub(*ast.subquery));
        if (sub.output_cols.size() != 1) {
          return Status::InvalidArgument(
              "scalar subquery must return one column");
        }
        return MakeScalarSubquery(sub.root,
                                  columns_->type(sub.output_cols[0]));
      }
      case AstExprKind::kExists: {
        ORQ_ASSIGN_OR_RETURN(BoundQuery sub, BindSub(*ast.subquery));
        return MakeExists(sub.root, ast.negated);
      }
      case AstExprKind::kInSubquery: {
        // A `?` probe types itself from the subquery's output column; the
        // subquery then binds first (column-id order is unchanged for
        // parameter-free queries).
        ScalarExprPtr probe;
        BoundQuery sub;
        if (IsParam(*ast.children[0])) {
          ORQ_ASSIGN_OR_RETURN(sub, BindSub(*ast.subquery));
          if (sub.output_cols.size() != 1) {
            return Status::InvalidArgument(
                "IN subquery must return one column");
          }
          ORQ_ASSIGN_OR_RETURN(
              probe, BindParam(*ast.children[0],
                               columns_->type(sub.output_cols[0])));
        } else {
          ORQ_ASSIGN_OR_RETURN(probe, Bind(*ast.children[0]));
          ORQ_ASSIGN_OR_RETURN(sub, BindSub(*ast.subquery));
          if (sub.output_cols.size() != 1) {
            return Status::InvalidArgument(
                "IN subquery must return one column");
          }
        }
        return MakeInSubquery(std::move(probe), sub.root, ast.negated);
      }
      case AstExprKind::kQuantified: {
        ScalarExprPtr left;
        BoundQuery sub;
        if (IsParam(*ast.children[0])) {
          ORQ_ASSIGN_OR_RETURN(sub, BindSub(*ast.subquery));
          if (sub.output_cols.size() != 1) {
            return Status::InvalidArgument(
                "quantified subquery must return one column");
          }
          ORQ_ASSIGN_OR_RETURN(
              left, BindParam(*ast.children[0],
                              columns_->type(sub.output_cols[0])));
        } else {
          ORQ_ASSIGN_OR_RETURN(left, Bind(*ast.children[0]));
          ORQ_ASSIGN_OR_RETURN(sub, BindSub(*ast.subquery));
          if (sub.output_cols.size() != 1) {
            return Status::InvalidArgument(
                "quantified subquery must return one column");
          }
        }
        return MakeQuantified(ast.cmp, ast.quantifier, std::move(left),
                              sub.root);
      }
    }
    return Status::Internal("unhandled AST node");
  }

 private:
  Result<BoundQuery> BindSub(const SelectStmt& stmt) {
    return bind_subquery_(stmt, scope_);
  }

  static bool IsParam(const AstExpr& ast) {
    return ast.kind == AstExprKind::kParam;
  }

  /// Binds a `?` node whose type the call site inferred, recording the
  /// ordinal -> type assignment on the owning Binder.
  Result<ScalarExprPtr> BindParam(const AstExpr& ast, DataType type) {
    ORQ_RETURN_IF_ERROR(binder_->RecordParam(ast.param_index, type));
    return MakeParam(ast.param_index, type);
  }

  Result<ScalarExprPtr> BindBinary(const AstExpr& ast) {
    const std::string& op = ast.op;
    const bool l_param = IsParam(*ast.children[0]);
    const bool r_param = IsParam(*ast.children[1]);
    if (l_param || r_param) {
      if (op == "AND" || op == "OR") {
        // Boolean context fixes the type directly.
      } else if (op == "LIKE") {
        // Both sides of LIKE are strings.
      } else if (l_param && r_param) {
        return Status::InvalidArgument(
            "cannot infer parameter types: both sides of '" + op +
            "' are parameters");
      }
      ScalarExprPtr l;
      ScalarExprPtr r;
      if (op == "AND" || op == "OR" || op == "LIKE") {
        const DataType t =
            op == "LIKE" ? DataType::kString : DataType::kBool;
        if (l_param) {
          ORQ_ASSIGN_OR_RETURN(l, BindParam(*ast.children[0], t));
        } else {
          ORQ_ASSIGN_OR_RETURN(l, Bind(*ast.children[0]));
        }
        if (r_param) {
          ORQ_ASSIGN_OR_RETURN(r, BindParam(*ast.children[1], t));
        } else {
          ORQ_ASSIGN_OR_RETURN(r, Bind(*ast.children[1]));
        }
      } else if (l_param) {
        ORQ_ASSIGN_OR_RETURN(r, Bind(*ast.children[1]));
        ORQ_ASSIGN_OR_RETURN(l, BindParam(*ast.children[0], r->type));
      } else {
        ORQ_ASSIGN_OR_RETURN(l, Bind(*ast.children[0]));
        ORQ_ASSIGN_OR_RETURN(r, BindParam(*ast.children[1], l->type));
      }
      return FinishBinary(op, std::move(l), std::move(r));
    }
    ORQ_ASSIGN_OR_RETURN(ScalarExprPtr l, Bind(*ast.children[0]));
    ORQ_ASSIGN_OR_RETURN(ScalarExprPtr r, Bind(*ast.children[1]));
    return FinishBinary(op, std::move(l), std::move(r));
  }

  Result<ScalarExprPtr> FinishBinary(const std::string& op, ScalarExprPtr l,
                                     ScalarExprPtr r) {
    if (op == "AND") return MakeAnd2(std::move(l), std::move(r));
    if (op == "OR") return MakeOr({std::move(l), std::move(r)});
    if (op == "LIKE") return MakeLike(std::move(l), std::move(r));
    if (op == "+") return MakeArith(ArithOp::kAdd, std::move(l), std::move(r));
    if (op == "-") return MakeArith(ArithOp::kSub, std::move(l), std::move(r));
    if (op == "*") return MakeArith(ArithOp::kMul, std::move(l), std::move(r));
    if (op == "/") return MakeArith(ArithOp::kDiv, std::move(l), std::move(r));
    CompareOp cmp;
    if (op == "=") cmp = CompareOp::kEq;
    else if (op == "<>") cmp = CompareOp::kNe;
    else if (op == "<") cmp = CompareOp::kLt;
    else if (op == "<=") cmp = CompareOp::kLe;
    else if (op == ">") cmp = CompareOp::kGt;
    else if (op == ">=") cmp = CompareOp::kGe;
    else return Status::Unsupported("operator " + op);
    return MakeCompare(cmp, std::move(l), std::move(r));
  }

  Result<ScalarExprPtr> BindFunc(const AstExpr& ast) {
    if (!IsAggregateName(ast.name)) {
      return Status::Unsupported("function " + ast.name);
    }
    if (aggs_ == nullptr) {
      return Status::InvalidArgument(
          "aggregate " + ast.name + " not allowed in this context");
    }
    bool is_count_star =
        !ast.children.empty() && ast.children[0]->kind == AstExprKind::kStar;
    ScalarExprPtr arg;
    if (!is_count_star) {
      if (ast.children.size() != 1) {
        return Status::InvalidArgument(ast.name + " takes one argument");
      }
      // Aggregate arguments bind against the pre-aggregation scope; nested
      // aggregates are rejected.
      AggCollector* saved = aggs_;
      aggs_ = nullptr;
      Result<ScalarExprPtr> bound = Bind(*ast.children[0]);
      aggs_ = saved;
      if (!bound.ok()) return bound.status();
      arg = *bound;
    }
    if (EqualsIgnoreCase(ast.name, "count")) {
      if (is_count_star) {
        ColumnId id = aggs_->Register(AggFunc::kCountStar, nullptr, false,
                                      DataType::kInt64, "count");
        return CRef(id, DataType::kInt64);
      }
      ColumnId id = aggs_->Register(AggFunc::kCount, arg, ast.distinct,
                                    DataType::kInt64, "count");
      return CRef(id, DataType::kInt64);
    }
    if (EqualsIgnoreCase(ast.name, "sum")) {
      ColumnId id =
          aggs_->Register(AggFunc::kSum, arg, ast.distinct, arg->type, "sum");
      return CRef(id, arg->type);
    }
    if (EqualsIgnoreCase(ast.name, "min")) {
      ColumnId id =
          aggs_->Register(AggFunc::kMin, arg, false, arg->type, "min");
      return CRef(id, arg->type);
    }
    if (EqualsIgnoreCase(ast.name, "max")) {
      ColumnId id =
          aggs_->Register(AggFunc::kMax, arg, false, arg->type, "max");
      return CRef(id, arg->type);
    }
    // avg(e) decomposes into sum(e)/count(e), guarded against empty/all-NULL
    // groups (paper section 3.3: every aggregate gets local/global parts).
    DataType sum_type = arg->type;
    ColumnId sum_id =
        aggs_->Register(AggFunc::kSum, arg, ast.distinct, sum_type, "sum");
    ColumnId cnt_id = aggs_->Register(AggFunc::kCount, arg, ast.distinct,
                                      DataType::kInt64, "count");
    ScalarExprPtr cnt = CRef(cnt_id, DataType::kInt64);
    ScalarExprPtr division = MakeArith(
        ArithOp::kDiv,
        MakeArith(ArithOp::kMul, CRef(sum_id, sum_type), LitDouble(1.0)),
        cnt);
    return MakeCase({MakeCompare(CompareOp::kEq, cnt, LitInt(0)),
                     LitNull(DataType::kDouble), division},
                    DataType::kDouble);
  }

  Binder* binder_;
  Catalog* catalog_;
  ColumnManager* columns_;
  Binder::Scope* scope_;
  AggCollector* aggs_;
  std::function<Result<BoundQuery>(const SelectStmt&, Binder::Scope*)>
      bind_subquery_;
};

namespace {

bool AstHasAggregate(const AstExpr* ast) {
  if (ast == nullptr) return false;
  if (ast->kind == AstExprKind::kFuncCall && IsAggregateName(ast->name)) {
    return true;
  }
  // Do not descend into subqueries: their aggregates are theirs.
  for (const AstExprPtr& child : ast->children) {
    if (AstHasAggregate(child.get())) return true;
  }
  return false;
}

}  // namespace

Status Binder::RecordParam(int ordinal, DataType type) {
  if (ordinal < 0) {
    return Status::Internal("parameter with unassigned ordinal");
  }
  if (param_types_.size() <= static_cast<size_t>(ordinal)) {
    param_types_.resize(ordinal + 1, DataType::kInt64);
    param_seen_.resize(ordinal + 1, false);
  }
  if (param_seen_[ordinal]) {
    return Status::Internal("parameter ?" + std::to_string(ordinal + 1) +
                            " bound twice");
  }
  param_seen_[ordinal] = true;
  param_types_[ordinal] = type;
  return Status::OK();
}

Result<BoundQuery> Binder::Bind(const SelectStmt& stmt) {
  ORQ_ASSIGN_OR_RETURN(BoundQuery bound, BindSelect(stmt, nullptr));
  for (size_t i = 0; i < param_seen_.size(); ++i) {
    if (!param_seen_[i]) {
      return Status::InvalidArgument("parameter ?" + std::to_string(i + 1) +
                                     " was never bound");
    }
  }
  bound.param_types = param_types_;
  return bound;
}

Result<BoundQuery> Binder::BindSelect(const SelectStmt& stmt, Scope* outer) {
  ORQ_ASSIGN_OR_RETURN(BoundQuery left, BindBlock(stmt, outer));
  if (stmt.set_op == SelectStmt::SetOp::kNone) return left;
  ORQ_ASSIGN_OR_RETURN(BoundQuery right, BindSelect(*stmt.set_rhs, outer));
  if (left.output_cols.size() != right.output_cols.size()) {
    return Status::InvalidArgument("set operands have different arity");
  }
  // Each column takes the common type of its two sides (Unify); a side
  // whose column is a bare NULL takes the other side's type.
  std::vector<ColumnId> out_cols;
  std::vector<DataType> types;
  for (size_t i = 0; i < left.output_cols.size(); ++i) {
    DataType type = columns_->type(left.output_cols[i]);
    bool typed = false;
    for (const BoundQuery* side : {&left, &right}) {
      const ColumnId col = side->output_cols[i];
      if (IsNullColumn(*side->root, col)) continue;
      ORQ_RETURN_IF_ERROR(Unify(columns_->type(col), "set operation column",
                                &type, &typed));
    }
    types.push_back(type);
    out_cols.push_back(columns_->NewColumn(left.output_names[i], type, true));
  }
  // A side with a column of another type computes it anew, coerced.
  for (BoundQuery* side : {&left, &right}) {
    std::vector<ProjectItem> items;
    ColumnSet pass;
    for (size_t i = 0; i < types.size(); ++i) {
      ColumnId& col = side->output_cols[i];
      if (columns_->type(col) == types[i]) {
        pass.Add(col);
        continue;
      }
      ScalarExprPtr value = IsNullColumn(*side->root, col)
                                ? LitNull(types[i])
                                : Coerce(CRef(*columns_, col), types[i]);
      col = columns_->NewColumn(side->output_names[i], types[i], true);
      items.push_back(ProjectItem{col, std::move(value)});
    }
    if (!items.empty()) {
      side->root = MakeProject(side->root, std::move(items), pass);
    }
  }
  std::vector<std::vector<ColumnId>> maps = {left.output_cols,
                                             right.output_cols};
  BoundQuery result;
  result.output_cols = out_cols;
  result.output_names = left.output_names;
  if (stmt.set_op == SelectStmt::SetOp::kUnionAll) {
    result.root = MakeUnionAll({left.root, right.root}, std::move(out_cols),
                               std::move(maps));
  } else {
    result.root = MakeExceptAll(left.root, right.root, std::move(out_cols),
                                std::move(maps));
  }
  return result;
}

Result<BoundQuery> Binder::BindBlock(const SelectStmt& stmt, Scope* outer) {
  Scope scope;
  scope.parent = outer;

  // ---- FROM ----
  RelExprPtr rel;
  std::function<Result<RelExprPtr>(const TableRef&)> bind_ref =
      [&](const TableRef& ref) -> Result<RelExprPtr> {
    switch (ref.kind) {
      case TableRefKind::kBaseTable: {
        Table* table = catalog_->FindTable(ref.table_name);
        if (table == nullptr) {
          return Status::NotFound("unknown table: " + ref.table_name);
        }
        std::vector<ColumnId> ids;
        for (const ColumnSpec& col : table->columns()) {
          ColumnId id = columns_->NewColumn(col.name, col.type, col.nullable);
          ids.push_back(id);
          scope.Add(ref.alias, col.name, id);
        }
        return MakeGet(table, std::move(ids));
      }
      case TableRefKind::kDerivedTable: {
        // Derived tables are uncorrelated: bind against the outer scope
        // only (not FROM siblings).
        ORQ_ASSIGN_OR_RETURN(BoundQuery sub, BindSelect(*ref.derived, outer));
        for (size_t i = 0; i < sub.output_cols.size(); ++i) {
          scope.Add(ref.alias, sub.output_names[i], sub.output_cols[i]);
        }
        return sub.root;
      }
      case TableRefKind::kJoin: {
        ORQ_ASSIGN_OR_RETURN(RelExprPtr left, bind_ref(*ref.left));
        ORQ_ASSIGN_OR_RETURN(RelExprPtr right, bind_ref(*ref.right));
        ScalarExprPtr condition = TrueLiteral();
        if (ref.on_condition != nullptr) {
          ExprBinder expr_binder(
              this, catalog_, columns_.get(), &scope, nullptr,
              [this](const SelectStmt& sub, Scope* s) {
                return BindSelect(sub, s);
              });
          ORQ_ASSIGN_OR_RETURN(condition,
                               expr_binder.Bind(*ref.on_condition));
          if (condition->HasSubquery()) {
            return Status::Unsupported("subquery in ON clause");
          }
        }
        JoinKind kind =
            ref.join_kind == JoinKind::kCross ? JoinKind::kInner : ref.join_kind;
        return MakeJoin(kind, std::move(left), std::move(right),
                        std::move(condition));
      }
    }
    return Status::Internal("unhandled table ref");
  };

  if (stmt.from.empty()) {
    rel = MakeSingleRow();
  } else {
    ORQ_ASSIGN_OR_RETURN(rel, bind_ref(*stmt.from[0]));
    for (size_t i = 1; i < stmt.from.size(); ++i) {
      ORQ_ASSIGN_OR_RETURN(RelExprPtr next, bind_ref(*stmt.from[i]));
      rel = MakeJoin(JoinKind::kInner, std::move(rel), std::move(next),
                     TrueLiteral());
    }
  }

  auto subquery_binder = [this](const SelectStmt& sub, Scope* s) {
    return BindSelect(sub, s);
  };

  // ---- WHERE ----
  if (stmt.where != nullptr) {
    if (AstHasAggregate(stmt.where.get())) {
      return Status::InvalidArgument("aggregates not allowed in WHERE");
    }
    ExprBinder expr_binder(this, catalog_, columns_.get(), &scope, nullptr,
                           subquery_binder);
    ORQ_ASSIGN_OR_RETURN(ScalarExprPtr pred, expr_binder.Bind(*stmt.where));
    rel = MakeSelect(std::move(rel), std::move(pred));
  }

  // ---- aggregation ----
  bool has_group_by = !stmt.group_by.empty();
  bool has_aggs = AstHasAggregate(stmt.having.get());
  for (const SelectItem& item : stmt.items) {
    has_aggs |= AstHasAggregate(item.expr.get());
  }
  for (const OrderItem& item : stmt.order_by) {
    has_aggs |= AstHasAggregate(item.expr.get());
  }
  bool aggregate_query = has_group_by || has_aggs;

  ColumnSet group_cols;
  AggCollector collector;
  collector.columns = columns_.get();

  if (aggregate_query) {
    // Bind GROUP BY expressions. Plain column refs group directly; computed
    // expressions get a pre-projection.
    std::vector<ProjectItem> pre_items;
    // Computed grouping expressions; SELECT/HAVING occurrences of a
    // structurally equal expression resolve to the grouping column.
    std::vector<std::pair<ScalarExprPtr, ColumnId>> group_exprs;
    ExprBinder group_binder(this, catalog_, columns_.get(), &scope, nullptr,
                            subquery_binder);
    for (const AstExprPtr& g : stmt.group_by) {
      ORQ_ASSIGN_OR_RETURN(ScalarExprPtr bound, group_binder.Bind(*g));
      if (bound->HasSubquery()) {
        return Status::Unsupported("subquery in GROUP BY");
      }
      if (bound->kind == ScalarKind::kColumnRef) {
        group_cols.Add(bound->column);
      } else {
        ColumnId id = columns_->NewColumn("groupexpr", bound->type, true);
        pre_items.push_back(ProjectItem{id, bound});
        group_exprs.emplace_back(bound, id);
        group_cols.Add(id);
      }
    }
    if (!pre_items.empty()) {
      rel = MakeProject(rel, std::move(pre_items), rel->OutputSet());
    }
    std::function<ScalarExprPtr(const ScalarExprPtr&)> fold_group_exprs =
        [&](const ScalarExprPtr& e) -> ScalarExprPtr {
      if (e == nullptr) return e;
      for (const auto& [expr, id] : group_exprs) {
        if (ScalarEquals(e, expr)) return CRef(*columns_, id);
      }
      if (e->children.empty()) return e;
      auto copy = std::make_shared<ScalarExpr>(*e);
      for (ScalarExprPtr& child : copy->children) {
        child = fold_group_exprs(child);
      }
      return copy;
    };

    // Bind SELECT items and HAVING with aggregate collection.
    ExprBinder agg_binder(this, catalog_, columns_.get(), &scope, &collector,
                          subquery_binder);
    std::vector<ProjectItem> out_items;
    std::vector<std::string> out_names;
    ColumnSet group_or_agg = group_cols;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.expr == nullptr) {
        return Status::InvalidArgument("'*' not allowed with GROUP BY");
      }
      ORQ_ASSIGN_OR_RETURN(ScalarExprPtr bound, agg_binder.Bind(*item.expr));
      bound = fold_group_exprs(bound);
      std::string name =
          !item.alias.empty()
              ? item.alias
              : (item.expr->kind == AstExprKind::kColumn
                     ? item.expr->name
                     : "col" + std::to_string(i + 1));
      ColumnId id = columns_->NewColumn(name, bound->type, true);
      out_items.push_back(ProjectItem{id, std::move(bound)});
      out_names.push_back(name);
    }
    ScalarExprPtr having;
    if (stmt.having != nullptr) {
      ORQ_ASSIGN_OR_RETURN(having, agg_binder.Bind(*stmt.having));
      having = fold_group_exprs(having);
    }

    for (const AggItem& item : collector.items) group_or_agg.Add(item.output);
    // Validate: every free column in post-aggregation expressions must be a
    // grouping column or an aggregate output.
    for (const ProjectItem& item : out_items) {
      ColumnSet refs;
      CollectColumnRefsDeep(item.expr, &refs);
      // References bound from outer scopes are permitted (correlated
      // subquery within select list binds before aggregation... treated as
      // parameters); only columns visible in this block are checked.
      ColumnSet visible = rel->OutputSet();
      for (ColumnId id : refs) {
        if (visible.Contains(id) && !group_or_agg.Contains(id)) {
          return Status::InvalidArgument(
              "column " + columns_->name(id) +
              " must appear in GROUP BY or inside an aggregate");
        }
      }
    }

    rel = has_group_by
              ? MakeGroupBy(rel, group_cols, std::move(collector.items))
              : MakeScalarGroupBy(rel, std::move(collector.items));
    if (having != nullptr) {
      rel = MakeSelect(rel, std::move(having));
    }

    BoundQuery result;
    for (const ProjectItem& item : out_items) {
      result.output_cols.push_back(item.output);
    }
    result.output_names = std::move(out_names);
    std::vector<ProjectItem> items_copy = out_items;
    rel = MakeProject(rel, std::move(out_items), ColumnSet());
    ORQ_RETURN_IF_ERROR(
        ApplyOrderAndDistinct(stmt, &scope, items_copy, &rel, &result));
    result.root = rel;
    return result;
  }

  // ---- non-aggregate SELECT list ----
  ExprBinder expr_binder(this, catalog_, columns_.get(), &scope, nullptr,
                         subquery_binder);
  std::vector<ProjectItem> out_items;
  BoundQuery result;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.expr == nullptr) {
      // '*': every column of the FROM scope, in declaration order.
      for (const Scope::Entry& e : scope.entries) {
        ColumnId id =
            columns_->NewColumn(e.name, columns_->type(e.id), true);
        out_items.push_back(ProjectItem{id, CRef(*columns_, e.id)});
        result.output_cols.push_back(id);
        result.output_names.push_back(e.name);
      }
      continue;
    }
    ORQ_ASSIGN_OR_RETURN(ScalarExprPtr bound, expr_binder.Bind(*item.expr));
    std::string name =
        !item.alias.empty()
            ? item.alias
            : (item.expr->kind == AstExprKind::kColumn
                   ? item.expr->name
                   : "col" + std::to_string(i + 1));
    ColumnId id = columns_->NewColumn(name, bound->type, true);
    out_items.push_back(ProjectItem{id, std::move(bound)});
    result.output_cols.push_back(id);
    result.output_names.push_back(name);
  }
  std::vector<ProjectItem> items_copy = out_items;
  rel = MakeProject(rel, std::move(out_items), ColumnSet());
  ORQ_RETURN_IF_ERROR(
      ApplyOrderAndDistinct(stmt, &scope, items_copy, &rel, &result));
  result.root = rel;
  return result;
}

Status Binder::ApplyOrderAndDistinct(const SelectStmt& stmt, Scope* scope,
                                     const std::vector<ProjectItem>& out_items,
                                     RelExprPtr* rel, BoundQuery* result) {
  if (stmt.distinct) {
    *rel = MakeGroupBy(*rel, ColumnSet(result->output_cols), {});
  }
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    bool hidden_sort_cols = false;
    for (const OrderItem& item : stmt.order_by) {
      SortKey key;
      key.ascending = item.ascending;
      // ORDER BY <ordinal>
      if (item.expr->kind == AstExprKind::kLiteral &&
          item.expr->literal.type() == DataType::kInt64 &&
          !item.expr->literal.is_null()) {
        int64_t ordinal = item.expr->literal.int64_value();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(result->output_cols.size())) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        key.expr = CRef(*columns_, result->output_cols[ordinal - 1]);
        keys.push_back(std::move(key));
        continue;
      }
      // ORDER BY <output alias>
      if (item.expr->kind == AstExprKind::kColumn &&
          item.expr->qualifier.empty()) {
        bool matched = false;
        for (size_t i = 0; i < result->output_names.size(); ++i) {
          if (EqualsIgnoreCase(result->output_names[i], item.expr->name)) {
            key.expr = CRef(*columns_, result->output_cols[i]);
            matched = true;
            break;
          }
        }
        if (matched) {
          keys.push_back(std::move(key));
          continue;
        }
      }
      // Fall back to binding against the FROM scope; only valid when the
      // referenced columns survive into the sort input, which holds for
      // column refs that the select list projects — otherwise report.
      ExprBinder expr_binder(this, catalog_, columns_.get(), scope, nullptr,
                             [this](const SelectStmt& sub, Scope* s) {
                               return BindSelect(sub, s);
                             });
      ORQ_ASSIGN_OR_RETURN(ScalarExprPtr bound, expr_binder.Bind(*item.expr));
      // An expression structurally equal to a select item sorts by that
      // output column (e.g. ORDER BY c_nationkey when the select list
      // contains c_nationkey under a generated name).
      for (const ProjectItem& out : out_items) {
        if (ScalarEquals(bound, out.expr)) {
          bound = CRef(*columns_, out.output);
          break;
        }
      }
      ColumnSet refs;
      CollectColumnRefs(bound, &refs);
      ColumnSet missing = refs.Minus((*rel)->OutputSet());
      if (!missing.empty()) {
        // SQL permits ordering by columns the select list does not
        // project; forward them through the final Project as hidden
        // columns (trimmed again after the sort).
        if ((*rel)->kind == RelKind::kProject &&
            missing.IsSubsetOf((*rel)->children[0]->OutputSet())) {
          RelExprPtr widened = CloneWithChildren(**rel, (*rel)->children);
          widened->passthrough = widened->passthrough.Union(missing);
          *rel = widened;
          hidden_sort_cols = true;
        } else {
          return Status::Unsupported(
              "ORDER BY expression must reference output columns");
        }
      }
      key.expr = std::move(bound);
      keys.push_back(std::move(key));
    }
    *rel = MakeSort(*rel, std::move(keys), stmt.limit);
    if (hidden_sort_cols) {
      // Trim the hidden sort columns back out of the output.
      *rel = MakeProject(*rel, {}, ColumnSet(result->output_cols));
    }
  } else if (stmt.limit >= 0) {
    *rel = MakeSort(*rel, {}, stmt.limit);
  }
  return Status::OK();
}

}  // namespace orq
