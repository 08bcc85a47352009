#include "normalize/fold.h"

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "exec/evaluator.h"

namespace orq {

namespace {

bool IsLiteral(const ScalarExprPtr& e) {
  return e->kind == ScalarKind::kLiteral;
}

bool IsFalseLike(const ScalarExprPtr& e) { return IsFalseOrNullLiteral(e); }

/// True when `e` cannot be NULL: a column of `not_null`, a non-NULL
/// literal, or a comparison of two such operands of one comparison class
/// (an int64 compared with a string is UNKNOWN on every row).
bool NeverNull(const ScalarExprPtr& e, const ColumnSet& not_null) {
  switch (e->kind) {
    case ScalarKind::kColumnRef:
      return not_null.Contains(e->column);
    case ScalarKind::kLiteral:
      return !e->literal.is_null();
    case ScalarKind::kCompare:
      return Comparable(e->children[0]->type, e->children[1]->type) &&
             NeverNull(e->children[0], not_null) &&
             NeverNull(e->children[1], not_null);
    default:
      return false;
  }
}

bool ContainsIsNull(const ScalarExprPtr& e) {
  if (e->kind == ScalarKind::kIsNull) return true;
  for (const ScalarExprPtr& child : e->children) {
    if (ContainsIsNull(child)) return true;
  }
  return false;
}

}  // namespace

ScalarExprPtr FoldScalar(const ScalarExprPtr& expr,
                         const ColumnSet* not_null) {
  if (expr == nullptr || expr->kind == ScalarKind::kLiteral ||
      expr->kind == ScalarKind::kColumnRef) {
    return expr;
  }
  // Fold children first.
  bool changed = false;
  std::vector<ScalarExprPtr> children;
  children.reserve(expr->children.size());
  for (const ScalarExprPtr& child : expr->children) {
    ScalarExprPtr folded = FoldScalar(child, not_null);
    changed |= folded != child;
    children.push_back(std::move(folded));
  }
  ScalarExprPtr current = expr;
  if (changed) {
    auto copy = std::make_shared<ScalarExpr>(*expr);
    copy->children = std::move(children);
    current = copy;
  }
  switch (current->kind) {
    case ScalarKind::kAnd: {
      std::vector<ScalarExprPtr> keep;
      for (const ScalarExprPtr& c : current->children) {
        if (IsTrueLiteral(c)) continue;          // TRUE is neutral
        if (IsLiteral(c) && IsFalseLike(c) && !c->literal.is_null()) {
          return LitBool(false);                 // FALSE dominates
        }
        keep.push_back(c);
      }
      if (keep.size() != current->children.size()) return MakeAnd(keep);
      break;
    }
    case ScalarKind::kOr: {
      std::vector<ScalarExprPtr> keep;
      for (const ScalarExprPtr& c : current->children) {
        if (IsTrueLiteral(c)) return LitBool(true);  // TRUE dominates
        if (IsLiteral(c) && !c->literal.is_null() &&
            c->literal.type() == DataType::kBool && !c->literal.bool_value()) {
          continue;                                   // FALSE is neutral
        }
        keep.push_back(c);
      }
      if (keep.size() != current->children.size()) return MakeOr(keep);
      break;
    }
    case ScalarKind::kIsNull:
      if (not_null != nullptr && NeverNull(current->children[0], *not_null)) {
        return LitBool(false);
      }
      break;
    case ScalarKind::kNot:
      // NOT(NOT(x)) = x (three-valued logic preserves this).
      if (current->children[0]->kind == ScalarKind::kNot) {
        return current->children[0]->children[0];
      }
      break;
    default:
      break;
  }
  // All-literal subtrees evaluate now; evaluation errors (division by
  // zero) stay in the tree and fire at run time.
  bool all_literal = !current->children.empty() && current->rel == nullptr;
  for (const ScalarExprPtr& c : current->children) {
    all_literal &= IsLiteral(c);
  }
  if (all_literal && current->kind != ScalarKind::kCase) {
    Evaluator evaluator(current, {});
    ExecContext ctx;
    Result<Value> value = evaluator.Eval({}, &ctx);
    if (value.ok()) return Lit(*value);
  }
  return current;
}

bool IsProvablyEmpty(const RelExprPtr& node) {
  return node->kind == RelKind::kSelect &&
         node->predicate != nullptr &&
         node->predicate->kind == ScalarKind::kLiteral &&
         IsFalseOrNullLiteral(node->predicate);
}

namespace {

/// Canonical empty relation with `node`'s output columns.
RelExprPtr MakeEmpty(const RelExprPtr& node) {
  if (IsProvablyEmpty(node)) return node;
  return MakeSelect(node, LitBool(false));
}

class Folder {
 public:
  explicit Folder(ColumnManager* columns) : columns_(columns) {}

  RelExprPtr Fold(const RelExprPtr& node) {
    std::vector<RelExprPtr> children;
    bool changed = false;
    for (const RelExprPtr& child : node->children) {
      RelExprPtr folded = Fold(child);
      changed |= folded != child;
      children.push_back(std::move(folded));
    }
    RelExprPtr current =
        changed ? CloneWithChildren(*node, std::move(children)) : node;
    current = FoldPayload(current);
    return DetectEmpty(current);
  }

 private:
  RelExprPtr FoldPayload(const RelExprPtr& node) {
    bool changed = false;
    RelExprPtr current = node;
    auto ensure_copy = [&]() {
      if (!changed) {
        current = CloneWithChildren(*node, node->children);
        changed = true;
      }
    };
    if (node->predicate != nullptr) {
      // A Select's or Join's predicate reads its inputs' rows, so their
      // non-NULL columns are non-NULL wherever it is evaluated.
      ColumnSet not_null;
      const bool knows_nulls =
          (node->kind == RelKind::kSelect || node->kind == RelKind::kJoin) &&
          ContainsIsNull(node->predicate);
      if (knows_nulls) {
        for (const RelExprPtr& child : node->children) {
          not_null.AddAll(NotNullColumns(*child));
        }
      }
      ScalarExprPtr folded =
          FoldScalar(node->predicate, knows_nulls ? &not_null : nullptr);
      if (folded != node->predicate) {
        ensure_copy();
        current->predicate = folded;
      }
    }
    if (!node->proj_items.empty()) {
      std::vector<ProjectItem> items = node->proj_items;
      bool item_changed = false;
      for (ProjectItem& item : items) {
        ScalarExprPtr folded = FoldScalar(item.expr);
        item_changed |= folded != item.expr;
        item.expr = std::move(folded);
      }
      if (item_changed) {
        ensure_copy();
        current->proj_items = std::move(items);
      }
    }
    return current;
  }

  RelExprPtr DetectEmpty(const RelExprPtr& node) {
    switch (node->kind) {
      case RelKind::kSelect:
        if (IsProvablyEmpty(node->children[0])) return MakeEmpty(node);
        return node;
      case RelKind::kProject:
      case RelKind::kSort:
      case RelKind::kMax1row:
      case RelKind::kLocalGroupBy:
      case RelKind::kSegmentApply:
        if (IsProvablyEmpty(node->children[0])) return MakeEmpty(node);
        return node;
      case RelKind::kGroupBy:
        // A vector aggregate of nothing is nothing; a scalar aggregate of
        // nothing still produces its one row (section 1.1!).
        if (!node->scalar_agg && IsProvablyEmpty(node->children[0])) {
          return MakeEmpty(node);
        }
        return node;
      case RelKind::kJoin: {
        bool left_empty = IsProvablyEmpty(node->children[0]);
        bool right_empty = IsProvablyEmpty(node->children[1]);
        switch (node->join_kind) {
          case JoinKind::kInner:
          case JoinKind::kCross:
            if (left_empty || right_empty) return MakeEmpty(node);
            break;
          case JoinKind::kLeftSemi:
            if (left_empty || right_empty) return MakeEmpty(node);
            break;
          case JoinKind::kLeftAnti:
            if (left_empty) return MakeEmpty(node);
            // Nothing to reject against: the antijoin is its left input.
            if (right_empty) return node->children[0];
            break;
          case JoinKind::kLeftOuter:
            if (left_empty) return MakeEmpty(node);
            if (right_empty) {
              // Degenerates to NULL-padding the left side.
              std::vector<ProjectItem> items;
              for (ColumnId id : node->children[1]->OutputColumns()) {
                items.push_back(
                    ProjectItem{id, LitNull(columns_->type(id))});
              }
              return MakeProject(node->children[0], std::move(items),
                                 node->children[0]->OutputSet());
            }
            break;
        }
        return node;
      }
      case RelKind::kApply: {
        if (IsProvablyEmpty(node->children[0])) return MakeEmpty(node);
        return node;
      }
      case RelKind::kUnionAll: {
        std::vector<RelExprPtr> keep;
        std::vector<std::vector<ColumnId>> maps;
        for (size_t i = 0; i < node->children.size(); ++i) {
          if (IsProvablyEmpty(node->children[i])) continue;
          keep.push_back(node->children[i]);
          maps.push_back(node->input_maps[i]);
        }
        if (keep.size() == node->children.size()) return node;
        if (keep.empty()) return MakeEmpty(node);
        if (keep.size() == 1) {
          // Single surviving branch: rename its columns to the union's.
          std::vector<ProjectItem> items;
          for (size_t i = 0; i < node->out_cols.size(); ++i) {
            items.push_back(ProjectItem{
                node->out_cols[i], CRef(*columns_, maps[0][i])});
          }
          return MakeProject(keep[0], std::move(items), ColumnSet());
        }
        return MakeUnionAll(std::move(keep), node->out_cols,
                            std::move(maps));
      }
      case RelKind::kExceptAll: {
        if (IsProvablyEmpty(node->children[0])) return MakeEmpty(node);
        if (IsProvablyEmpty(node->children[1])) {
          // Nothing to subtract: the difference is its left input.
          std::vector<ProjectItem> items;
          for (size_t i = 0; i < node->out_cols.size(); ++i) {
            items.push_back(ProjectItem{
                node->out_cols[i],
                CRef(*columns_, node->input_maps[0][i])});
          }
          return MakeProject(node->children[0], std::move(items),
                             ColumnSet());
        }
        return node;
      }
      default:
        return node;
    }
  }

  ColumnManager* columns_;
};

}  // namespace

RelExprPtr FoldAndDetectEmpty(const RelExprPtr& root,
                              ColumnManager* columns) {
  Folder folder(columns);
  return folder.Fold(root);
}

}  // namespace orq
