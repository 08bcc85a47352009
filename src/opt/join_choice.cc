#include "opt/join_choice.h"

#include <optional>

#include "algebra/expr_util.h"

namespace orq {

std::optional<std::pair<ScalarExprPtr, ScalarExprPtr>> EquiKey(
    const ScalarExprPtr& c, const ColumnSet& left_cols,
    const ColumnSet& right_cols) {
  if (c->kind != ScalarKind::kCompare || c->cmp != CompareOp::kEq) {
    return std::nullopt;
  }
  ColumnSet lrefs, rrefs;
  CollectColumnRefs(c->children[0], &lrefs);
  CollectColumnRefs(c->children[1], &rrefs);
  if (lrefs.IsSubsetOf(left_cols) && rrefs.IsSubsetOf(right_cols)) {
    return std::make_pair(c->children[0], c->children[1]);
  }
  if (lrefs.IsSubsetOf(right_cols) && rrefs.IsSubsetOf(left_cols)) {
    return std::make_pair(c->children[1], c->children[0]);
  }
  return std::nullopt;
}

namespace {

/// The key pair of NOT IN's `l = r OR (l = r) IS NULL`, in either order of
/// the disjuncts.
std::optional<std::pair<ScalarExprPtr, ScalarExprPtr>> MatchNotIn(
    const ScalarExprPtr& p, const ColumnSet& left_cols,
    const ColumnSet& right_cols) {
  if (p->kind != ScalarKind::kOr || p->children.size() != 2) {
    return std::nullopt;
  }
  for (size_t e = 0; e < 2; ++e) {
    const ScalarExprPtr& eq = p->children[e];
    const ScalarExprPtr& is_null = p->children[1 - e];
    if (is_null->kind == ScalarKind::kIsNull &&
        ScalarEquals(is_null->children[0], eq)) {
      return EquiKey(eq, left_cols, right_cols);
    }
  }
  return std::nullopt;
}

}  // namespace

JoinChoice ChooseJoin(const RelExpr& join) {
  const ColumnSet left_cols = join.children[0]->OutputSet();
  const ColumnSet right_cols = join.children[1]->OutputSet();
  JoinChoice choice;
  if (join.join_kind == JoinKind::kLeftAnti) {
    if (auto key = MatchNotIn(join.predicate, left_cols, right_cols)) {
      choice.method = JoinMethod::kNullAwareAnti;
      choice.keys.push_back(std::move(*key));
      return choice;
    }
  }
  for (const ScalarExprPtr& c : SplitConjuncts(join.predicate)) {
    if (auto key = EquiKey(c, left_cols, right_cols)) {
      choice.keys.push_back(std::move(*key));
    } else {
      choice.residual.push_back(c);
    }
  }
  choice.method =
      choice.keys.empty() ? JoinMethod::kNestedLoops : JoinMethod::kHash;
  return choice;
}

}  // namespace orq
