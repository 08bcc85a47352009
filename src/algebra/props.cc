#include "algebra/props.h"

#include "algebra/expr_util.h"
#include "catalog/table.h"

namespace orq {

ColumnSet FreeVariables(const RelExpr& expr) {
  ColumnSet below;  // columns produced by children (visible to payload)
  ColumnSet free;
  for (size_t i = 0; i < expr.children.size(); ++i) {
    const RelExpr& child = *expr.children[i];
    ColumnSet child_free = FreeVariables(child);
    ColumnSet child_out = child.OutputSet();
    // Apply: the right child's free variables may be bound by the left
    // child (that *is* correlation). They are bound, not free, at this
    // node. (SegmentApply's inner refers to the segment through its own
    // SegmentRef ids; the outer's columns are not visible inside.)
    if (expr.kind == RelKind::kApply && i == 1) {
      child_free = child_free.Minus(below);
    }
    free.AddAll(child_free);
    below.AddAll(child_out);
  }
  ColumnSet payload = NodeScalarRefs(expr);
  free.AddAll(payload.Minus(below));
  return free;
}

namespace {

/// Equality conjuncts of `pred` of shape colref = colref; returns pairs.
std::vector<std::pair<ColumnId, ColumnId>> EqualityPairs(
    const ScalarExprPtr& pred) {
  std::vector<std::pair<ColumnId, ColumnId>> pairs;
  for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
    if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq &&
        c->children[0]->kind == ScalarKind::kColumnRef &&
        c->children[1]->kind == ScalarKind::kColumnRef) {
      pairs.emplace_back(c->children[0]->column, c->children[1]->column);
    }
  }
  return pairs;
}

/// True if the join predicate equates some key of `side` entirely with
/// columns from the other side (each key column appears in an equality
/// conjunct whose other operand is from `other_cols`).
bool JoinEquatesKeyOf(const RelExpr& side, const ColumnSet& other_cols,
                      const ScalarExprPtr& pred) {
  ColumnSet side_cols = side.OutputSet();
  ColumnSet equated;
  for (const auto& [a, b] : EqualityPairs(pred)) {
    if (side_cols.Contains(a) && other_cols.Contains(b)) equated.Add(a);
    if (side_cols.Contains(b) && other_cols.Contains(a)) equated.Add(b);
  }
  for (const ColumnSet& key : DeriveKeys(side)) {
    if (key.IsSubsetOf(equated)) return true;
  }
  return false;
}

void AddKeyUnique(std::vector<ColumnSet>* keys, ColumnSet key) {
  for (const ColumnSet& existing : *keys) {
    if (existing == key) return;
  }
  keys->push_back(std::move(key));
}

}  // namespace

std::vector<ColumnSet> DeriveKeys(const RelExpr& expr) {
  std::vector<ColumnSet> keys;
  switch (expr.kind) {
    case RelKind::kGet: {
      for (const std::vector<int>& unique : expr.table->unique_keys()) {
        ColumnSet key;
        bool covered = true;
        for (int ordinal : unique) {
          ColumnId id = -1;
          for (size_t i = 0; i < expr.get_ordinals.size(); ++i) {
            if (expr.get_ordinals[i] == ordinal) {
              id = expr.get_cols[i];
              break;
            }
          }
          if (id < 0) {
            covered = false;
            break;
          }
          key.Add(id);
        }
        if (covered) AddKeyUnique(&keys, std::move(key));
      }
      break;
    }
    case RelKind::kSelect:
      return DeriveKeys(*expr.children[0]);
    case RelKind::kSort:
      return DeriveKeys(*expr.children[0]);
    case RelKind::kMax1row: {
      // At most one row: the empty set is a key.
      keys.push_back(ColumnSet());
      break;
    }
    case RelKind::kProject: {
      ColumnSet out = expr.OutputSet();
      for (const ColumnSet& key : DeriveKeys(*expr.children[0])) {
        if (key.IsSubsetOf(out)) AddKeyUnique(&keys, key);
      }
      break;
    }
    case RelKind::kJoin: {
      const RelExpr& left = *expr.children[0];
      if (expr.join_kind == JoinKind::kLeftSemi ||
          expr.join_kind == JoinKind::kLeftAnti) {
        return DeriveKeys(left);
      }
      const RelExpr& right = *expr.children[1];
      std::vector<ColumnSet> lkeys = DeriveKeys(left);
      std::vector<ColumnSet> rkeys = DeriveKeys(right);
      bool right_unique_per_left =
          (expr.join_kind == JoinKind::kInner ||
           expr.join_kind == JoinKind::kLeftOuter) &&
          JoinEquatesKeyOf(right, left.OutputSet(), expr.predicate);
      bool left_unique_per_right =
          expr.join_kind == JoinKind::kInner &&
          JoinEquatesKeyOf(left, right.OutputSet(), expr.predicate);
      if (right_unique_per_left) {
        for (const ColumnSet& k : lkeys) AddKeyUnique(&keys, k);
      }
      if (left_unique_per_right) {
        for (const ColumnSet& k : rkeys) AddKeyUnique(&keys, k);
      }
      if (keys.empty()) {
        for (const ColumnSet& lk : lkeys) {
          for (const ColumnSet& rk : rkeys) {
            AddKeyUnique(&keys, lk.Union(rk));
          }
        }
      }
      break;
    }
    case RelKind::kApply: {
      const RelExpr& left = *expr.children[0];
      if (expr.apply_kind == ApplyKind::kSemi ||
          expr.apply_kind == ApplyKind::kAnti) {
        return DeriveKeys(left);
      }
      std::vector<ColumnSet> lkeys = DeriveKeys(left);
      if (MaxOneRow(*expr.children[1])) return lkeys;
      std::vector<ColumnSet> rkeys = DeriveKeys(*expr.children[1]);
      for (const ColumnSet& lk : lkeys) {
        for (const ColumnSet& rk : rkeys) {
          AddKeyUnique(&keys, lk.Union(rk));
        }
      }
      break;
    }
    case RelKind::kGroupBy:
      if (expr.scalar_agg) {
        keys.push_back(ColumnSet());  // exactly one row
      } else {
        keys.push_back(expr.group_cols);
      }
      break;
    case RelKind::kLocalGroupBy:
      keys.push_back(expr.group_cols);
      break;
    case RelKind::kExceptAll:
      // Multiplicities only shrink; keys of the left input survive.
      for (const ColumnSet& key : DeriveKeys(*expr.children[0])) {
        ColumnSet mapped;
        bool ok = true;
        const std::vector<ColumnId> lout = expr.children[0]->OutputColumns();
        for (ColumnId id : key) {
          // Translate via positional input_maps.
          bool found = false;
          for (size_t i = 0; i < expr.input_maps[0].size(); ++i) {
            if (expr.input_maps[0][i] == id) {
              mapped.Add(expr.out_cols[i]);
              found = true;
              break;
            }
          }
          if (!found) {
            ok = false;
            break;
          }
        }
        if (ok) AddKeyUnique(&keys, std::move(mapped));
      }
      break;
    case RelKind::kSegmentApply: {
      // Rows are (outer-subset, inner-result) pairs; no generally valid key
      // beyond key(R) x key(inner). Conservative: none.
      break;
    }
    case RelKind::kSingleRow:
      keys.push_back(ColumnSet());
      break;
    case RelKind::kUnionAll:
    case RelKind::kSegmentRef:
      break;
  }
  return keys;
}

bool HasKeyWithin(const RelExpr& expr, const ColumnSet& cols) {
  for (const ColumnSet& key : DeriveKeys(expr)) {
    if (key.IsSubsetOf(cols)) return true;
  }
  return false;
}

ColumnSet NotNullColumns(const RelExpr& expr) {
  switch (expr.kind) {
    case RelKind::kGet: {
      ColumnSet out;
      const auto& specs = expr.table->columns();
      for (size_t i = 0; i < expr.get_ordinals.size(); ++i) {
        if (!specs[expr.get_ordinals[i]].nullable) out.Add(expr.get_cols[i]);
      }
      return out;
    }
    case RelKind::kSelect: {
      ColumnSet out = NotNullColumns(*expr.children[0]);
      out.AddAll(NullRejectedColumns(expr.predicate));
      return out.Intersect(expr.OutputSet());
    }
    case RelKind::kSort:
    case RelKind::kMax1row:
      return NotNullColumns(*expr.children[0]);
    case RelKind::kProject: {
      ColumnSet out =
          NotNullColumns(*expr.children[0]).Intersect(expr.passthrough);
      for (const ProjectItem& item : expr.proj_items) {
        if (item.expr->kind == ScalarKind::kLiteral &&
            !item.expr->literal.is_null()) {
          out.Add(item.output);
        }
      }
      return out;
    }
    case RelKind::kJoin: {
      ColumnSet left = NotNullColumns(*expr.children[0]);
      switch (expr.join_kind) {
        case JoinKind::kInner:
        case JoinKind::kCross: {
          ColumnSet out = left.Union(NotNullColumns(*expr.children[1]));
          out.AddAll(NullRejectedColumns(expr.predicate));
          return out;
        }
        case JoinKind::kLeftOuter:
        case JoinKind::kLeftSemi:
        case JoinKind::kLeftAnti:
          return left;
      }
      return left;
    }
    case RelKind::kApply: {
      ColumnSet left = NotNullColumns(*expr.children[0]);
      if (expr.apply_kind == ApplyKind::kCross) {
        return left.Union(NotNullColumns(*expr.children[1]));
      }
      return left;
    }
    case RelKind::kGroupBy:
    case RelKind::kLocalGroupBy: {
      ColumnSet out =
          NotNullColumns(*expr.children[0]).Intersect(expr.group_cols);
      for (const AggItem& agg : expr.aggs) {
        if (agg.func == AggFunc::kCountStar || agg.func == AggFunc::kCount) {
          out.Add(agg.output);
        }
      }
      return out;
    }
    case RelKind::kSegmentApply:
      return NotNullColumns(*expr.children[0])
          .Union(NotNullColumns(*expr.children[1]));
    default:
      return ColumnSet();
  }
}

bool MaxOneRow(const RelExpr& expr) {
  switch (expr.kind) {
    case RelKind::kMax1row:
    case RelKind::kSingleRow:
      return true;
    case RelKind::kGroupBy:
      return expr.scalar_agg;
    case RelKind::kSort:
      if (expr.limit == 1) return true;
      return MaxOneRow(*expr.children[0]);
    case RelKind::kProject:
      return MaxOneRow(*expr.children[0]);
    case RelKind::kSelect: {
      if (MaxOneRow(*expr.children[0])) return true;
      // Selection that pins a key of the child to expressions free of the
      // child's own columns (outer parameters or literals) yields <=1 row.
      const RelExpr& child = *expr.children[0];
      ColumnSet child_cols = child.OutputSet();
      ColumnSet pinned;
      for (const ScalarExprPtr& c : SplitConjuncts(expr.predicate)) {
        if (c->kind != ScalarKind::kCompare || c->cmp != CompareOp::kEq) {
          continue;
        }
        for (int side = 0; side < 2; ++side) {
          const ScalarExprPtr& l = c->children[side];
          const ScalarExprPtr& r = c->children[1 - side];
          if (l->kind != ScalarKind::kColumnRef) continue;
          if (!child_cols.Contains(l->column)) continue;
          ColumnSet rrefs;
          CollectColumnRefsDeep(r, &rrefs);
          if (!rrefs.Intersects(child_cols)) pinned.Add(l->column);
        }
      }
      return HasKeyWithin(child, pinned);
    }
    default:
      return false;
  }
}

bool ExprNullOnNull(const ScalarExprPtr& expr, const ColumnSet& null_cols) {
  if (expr == nullptr) return false;
  switch (expr->kind) {
    case ScalarKind::kColumnRef:
      return null_cols.Contains(expr->column);
    case ScalarKind::kLiteral:
      return expr->literal.is_null();
    case ScalarKind::kArith:
    case ScalarKind::kCompare:
    case ScalarKind::kLike:
      // Strict in every child: NULL if any child is NULL.
      for (const auto& child : expr->children) {
        if (ExprNullOnNull(child, null_cols)) return true;
      }
      return false;
    case ScalarKind::kNegate:
    case ScalarKind::kCast:
    case ScalarKind::kNot:
      return ExprNullOnNull(expr->children[0], null_cols);
    case ScalarKind::kInList:
      // NULL probe makes IN unknown only when no positive match is possible;
      // conservatively require the probe to be NULL and no literal matches —
      // too subtle: only claim NULL when the probe is NULL-valued and the
      // list is all non-NULL... skip (be conservative).
      return false;
    default:
      return false;
  }
}

bool PredicateNotTrueOnNull(const ScalarExprPtr& pred,
                            const ColumnSet& null_cols) {
  if (pred == nullptr) return false;
  if (ExprNullOnNull(pred, null_cols)) return true;  // NULL is not TRUE
  switch (pred->kind) {
    case ScalarKind::kAnd:
      for (const auto& child : pred->children) {
        if (PredicateNotTrueOnNull(child, null_cols)) return true;
      }
      return false;
    case ScalarKind::kOr:
      for (const auto& child : pred->children) {
        if (!PredicateNotTrueOnNull(child, null_cols)) return false;
      }
      return true;
    case ScalarKind::kIsNotNull:
      return ExprNullOnNull(pred->children[0], null_cols);
    case ScalarKind::kLiteral:
      return pred->literal.is_null() || !pred->literal.bool_value();
    default:
      return false;
  }
}

ColumnSet NullRejectedColumns(const ScalarExprPtr& pred) {
  ColumnSet out;
  for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
    ColumnSet refs;
    CollectColumnRefs(c, &refs);
    for (ColumnId id : refs) {
      if (PredicateNotTrueOnNull(c, ColumnSet{id})) out.Add(id);
    }
  }
  return out;
}

}  // namespace orq
