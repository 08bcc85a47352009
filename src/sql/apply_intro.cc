#include "sql/apply_intro.h"

#include <functional>

#include "algebra/expr_util.h"
#include "algebra/props.h"

namespace orq {

namespace {

/// True when the tree is statically known to produce *exactly* one row
/// (scalar aggregates do; this is what lets a scalar subquery use plain
/// Apply-cross without a Max1row guard).
bool ExactlyOneRow(const RelExpr& expr) {
  switch (expr.kind) {
    case RelKind::kGroupBy:
      return expr.scalar_agg;
    case RelKind::kSingleRow:
      return true;
    case RelKind::kProject:
      return ExactlyOneRow(*expr.children[0]);
    case RelKind::kSort:
      return expr.limit != 0 && ExactlyOneRow(*expr.children[0]);
    default:
      return false;
  }
}

class ApplyIntroducer {
 public:
  explicit ApplyIntroducer(ColumnManager* columns) : columns_(columns) {}

  Result<RelExprPtr> Rewrite(const RelExprPtr& node) {
    // Children first (bottom-up).
    std::vector<RelExprPtr> children;
    bool changed = false;
    for (const RelExprPtr& child : node->children) {
      ORQ_ASSIGN_OR_RETURN(RelExprPtr rewritten, Rewrite(child));
      changed |= rewritten != child;
      children.push_back(std::move(rewritten));
    }
    RelExprPtr current =
        changed ? CloneWithChildren(*node, std::move(children)) : node;

    switch (current->kind) {
      case RelKind::kSelect:
        return RewriteSelect(current);
      case RelKind::kProject:
        return RewriteProject(current);
      default: {
        // No other operator may carry subqueries in its payload.
        if (PayloadHasSubquery(*current)) {
          return Status::Unsupported(
              "subquery in unsupported position (only WHERE/HAVING/SELECT "
              "list are supported)");
        }
        return current;
      }
    }
  }

 private:
  static bool PayloadHasSubquery(const RelExpr& node) {
    if (node.predicate && node.predicate->HasSubquery()) return true;
    for (const ProjectItem& item : node.proj_items) {
      if (item.expr->HasSubquery()) return true;
    }
    for (const AggItem& agg : node.aggs) {
      if (agg.arg && agg.arg->HasSubquery()) return true;
    }
    for (const SortKey& key : node.sort_keys) {
      if (key.expr && key.expr->HasSubquery()) return true;
    }
    return false;
  }

  /// Select: top-level existential conjuncts become semi/anti Apply;
  /// everything else goes through scalar extraction.
  Result<RelExprPtr> RewriteSelect(const RelExprPtr& node) {
    RelExprPtr input = node->children[0];
    std::vector<ScalarExprPtr> remaining;
    for (const ScalarExprPtr& conjunct : SplitConjuncts(node->predicate)) {
      switch (conjunct->kind) {
        case ScalarKind::kExistsSubquery: {
          ORQ_ASSIGN_OR_RETURN(RelExprPtr sub, Rewrite(conjunct->rel));
          input = MakeApply(
              conjunct->negated ? ApplyKind::kAnti : ApplyKind::kSemi, input,
              sub);
          continue;
        }
        case ScalarKind::kInSubquery: {
          if (conjunct->children[0]->HasSubquery()) break;  // nested: general
          ORQ_ASSIGN_OR_RETURN(RelExprPtr sub, Rewrite(conjunct->rel));
          ColumnId y = sub->OutputColumns()[0];
          ScalarExprPtr eq =
              Eq(conjunct->children[0], CRef(*columns_, y));
          if (!conjunct->negated) {
            input = MakeApply(ApplyKind::kSemi, input,
                              MakeSelect(sub, eq));
          } else {
            // NOT IN keeps a row only when no inner row makes (x = y)
            // true or unknown.
            ScalarExprPtr cond = MakeOr({eq, MakeIsNull(eq)});
            input = MakeApply(ApplyKind::kAnti, input,
                              MakeSelect(sub, cond));
          }
          continue;
        }
        case ScalarKind::kQuantifiedCompare: {
          if (conjunct->children[0]->HasSubquery()) break;
          ORQ_ASSIGN_OR_RETURN(RelExprPtr sub, Rewrite(conjunct->rel));
          ColumnId y = sub->OutputColumns()[0];
          if (conjunct->quantifier == Quantifier::kAny) {
            ScalarExprPtr cmp = MakeCompare(
                conjunct->cmp, conjunct->children[0], CRef(*columns_, y));
            input = MakeApply(ApplyKind::kSemi, input,
                              MakeSelect(sub, cmp));
          } else {
            // ALL: reject the row when some inner row makes the comparison
            // not-true (false or unknown). The negated comparison is NULL
            // exactly when `cmp` is, so testing it spells `x <> ALL` as
            // NOT IN's `x = y OR (x = y) IS NULL`.
            ScalarExprPtr negated = MakeCompare(
                NegateCompare(conjunct->cmp), conjunct->children[0],
                CRef(*columns_, y));
            ScalarExprPtr not_true = MakeOr({negated, MakeIsNull(negated)});
            input = MakeApply(ApplyKind::kAnti, input,
                              MakeSelect(sub, not_true));
          }
          continue;
        }
        default:
          break;
      }
      if (conjunct->HasSubquery()) {
        ORQ_ASSIGN_OR_RETURN(ScalarExprPtr rewritten,
                             ExtractSubqueries(conjunct, &input));
        remaining.push_back(std::move(rewritten));
      } else {
        remaining.push_back(conjunct);
      }
    }
    if (remaining.empty()) return input;
    return MakeSelect(input, MakeAnd(std::move(remaining)));
  }

  Result<RelExprPtr> RewriteProject(const RelExprPtr& node) {
    RelExprPtr input = node->children[0];
    std::vector<ProjectItem> items;
    bool changed = false;
    for (const ProjectItem& item : node->proj_items) {
      if (!item.expr->HasSubquery()) {
        items.push_back(item);
        continue;
      }
      ORQ_ASSIGN_OR_RETURN(ScalarExprPtr rewritten,
                           ExtractSubqueries(item.expr, &input));
      items.push_back(ProjectItem{item.output, std::move(rewritten)});
      changed = true;
    }
    if (!changed && input == node->children[0]) return node;
    RelExprPtr out = CloneWithChildren(*node, {input});
    out->proj_items = std::move(items);
    return out;
  }

  /// Rewrites every subquery node inside `expr`, stacking Apply operators
  /// onto `*input`, and returns the subquery-free expression.
  Result<ScalarExprPtr> ExtractSubqueries(const ScalarExprPtr& expr,
                                          RelExprPtr* input) {
    if (expr == nullptr) return expr;
    switch (expr->kind) {
      case ScalarKind::kScalarSubquery: {
        ORQ_ASSIGN_OR_RETURN(RelExprPtr sub, Rewrite(expr->rel));
        ColumnId value = sub->OutputColumns()[0];
        if (ExactlyOneRow(*sub)) {
          *input = MakeApply(ApplyKind::kCross, *input, sub);
        } else if (MaxOneRow(*sub)) {
          *input = MakeApply(ApplyKind::kOuter, *input, sub);
        } else {
          *input = MakeApply(ApplyKind::kOuter, *input, MakeMax1row(sub));
        }
        return CRef(*columns_, value);
      }
      case ScalarKind::kExistsSubquery: {
        // General-position EXISTS: count(*) > 0 (section 2.4).
        ORQ_ASSIGN_OR_RETURN(RelExprPtr sub, Rewrite(expr->rel));
        ColumnId cnt =
            columns_->NewColumn("cnt", DataType::kInt64, false);
        RelExprPtr agg = MakeScalarGroupBy(
            sub, {AggItem{AggFunc::kCountStar, nullptr, cnt, false}});
        *input = MakeApply(ApplyKind::kCross, *input, agg);
        CompareOp op = expr->negated ? CompareOp::kEq : CompareOp::kGt;
        return MakeCompare(op, CRef(cnt, DataType::kInt64), LitInt(0));
      }
      case ScalarKind::kInSubquery:
      case ScalarKind::kQuantifiedCompare: {
        // General-position IN / quantified comparison: two counters keep
        // the full three-valued result.
        ORQ_ASSIGN_OR_RETURN(ScalarExprPtr probe,
                             ExtractSubqueries(expr->children[0], input));
        ORQ_ASSIGN_OR_RETURN(RelExprPtr sub, Rewrite(expr->rel));
        ColumnId y = sub->OutputColumns()[0];
        ScalarExprPtr cmp;
        bool all_quantifier = false;
        if (expr->kind == ScalarKind::kInSubquery) {
          cmp = Eq(probe, CRef(*columns_, y));
        } else {
          all_quantifier = expr->quantifier == Quantifier::kAll;
          CompareOp op = all_quantifier ? NegateCompare(expr->cmp) : expr->cmp;
          cmp = MakeCompare(op, probe, CRef(*columns_, y));
        }
        // m = #rows where cmp is true; u = #rows where cmp is unknown.
        ScalarExprPtr one_if_match =
            MakeCase({cmp, LitInt(1)}, DataType::kInt64);
        ScalarExprPtr one_if_unknown =
            MakeCase({MakeIsNull(cmp), LitInt(1)}, DataType::kInt64);
        ColumnId m = columns_->NewColumn("m", DataType::kInt64, false);
        ColumnId u = columns_->NewColumn("u", DataType::kInt64, false);
        RelExprPtr agg = MakeScalarGroupBy(
            sub, {AggItem{AggFunc::kCount, one_if_match, m, false},
                  AggItem{AggFunc::kCount, one_if_unknown, u, false}});
        *input = MakeApply(ApplyKind::kCross, *input, agg);
        ScalarExprPtr m_pos =
            MakeCompare(CompareOp::kGt, CRef(m, DataType::kInt64), LitInt(0));
        ScalarExprPtr u_pos =
            MakeCompare(CompareOp::kGt, CRef(u, DataType::kInt64), LitInt(0));
        // IN / ANY:  m>0 -> TRUE; else u>0 -> NULL; else FALSE.
        // ALL (cmp negated above): m>0 -> FALSE; else u>0 -> NULL; else TRUE.
        ScalarExprPtr on_match = LitBool(!all_quantifier);
        ScalarExprPtr on_exhaust = LitBool(all_quantifier);
        ScalarExprPtr value =
            MakeCase({m_pos, on_match, u_pos, LitNull(DataType::kBool),
                      on_exhaust},
                     DataType::kBool);
        if (expr->kind == ScalarKind::kInSubquery && expr->negated) {
          return MakeNot(value);
        }
        return value;
      }
      default:
        break;
    }
    bool changed = false;
    std::vector<ScalarExprPtr> children;
    children.reserve(expr->children.size());
    for (const ScalarExprPtr& child : expr->children) {
      ORQ_ASSIGN_OR_RETURN(ScalarExprPtr rewritten,
                           ExtractSubqueries(child, input));
      changed |= rewritten != child;
      children.push_back(std::move(rewritten));
    }
    if (!changed) return expr;
    auto copy = std::make_shared<ScalarExpr>(*expr);
    copy->children = std::move(children);
    return copy;
  }

  ColumnManager* columns_;
};

}  // namespace

Result<RelExprPtr> IntroduceApplies(RelExprPtr root, ColumnManager* columns) {
  ApplyIntroducer introducer(columns);
  return introducer.Rewrite(root);
}

}  // namespace orq
