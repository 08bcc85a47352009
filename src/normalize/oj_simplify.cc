#include "normalize/oj_simplify.h"

#include "algebra/expr_util.h"
#include "algebra/props.h"

namespace orq {

namespace {

/// Null-rejection evidence carried down the tree.
///
/// `plain` columns are rejected directly by an ancestor predicate (or via
/// strict projections): any NULL in them eliminates the row, so an outer
/// join producing them can always be simplified.
///
/// `via_agg` columns are rejected through an ancestor GroupBy's aggregate
/// arguments (HAVING sum(x) > 0 style). That derivation is sound only
/// when no group can mix NULL-padded and real rows of the outer join being
/// simplified — which holds iff the deriving GroupBy's grouping columns
/// (`guard`) contain a key of the join's preserved side. With scalar
/// aggregation or non-key grouping, a padded row shares its group with
/// real rows, the NULL-skipping aggregate never sees its NULLs, and
/// simplification would wrongly drop the preserved row from other
/// aggregates of the same group.
struct Rejection {
  ColumnSet plain;
  ColumnSet via_agg;
  ColumnSet guard;  // grouping columns of the via_agg derivation

  bool Intersects(const ColumnSet& cols) const {
    return plain.Intersects(cols) || via_agg.Intersects(cols);
  }
};

/// `node` over `children`: the node itself when every child came back
/// unchanged, so an untouched tree returns as the same root.
RelExprPtr WithChildren(const RelExprPtr& node,
                        std::vector<RelExprPtr> children) {
  if (children == node->children) return node;
  return CloneWithChildren(*node, std::move(children));
}

RelExprPtr Simplify(const RelExprPtr& node, Rejection rejected) {
  switch (node->kind) {
    case RelKind::kSelect: {
      Rejection down = rejected;
      down.plain.AddAll(NullRejectedColumns(node->predicate));
      return WithChildren(node, {Simplify(node->children[0], down)});
    }
    case RelKind::kProject: {
      // Translate rejection on computed outputs to their strict inputs.
      ColumnSet child_cols = node->children[0]->OutputSet();
      Rejection down;
      down.plain = rejected.plain.Intersect(node->passthrough);
      down.via_agg = rejected.via_agg.Intersect(node->passthrough);
      down.guard = rejected.guard;
      for (const ProjectItem& item : node->proj_items) {
        bool plain_out = rejected.plain.Contains(item.output);
        bool agg_out = rejected.via_agg.Contains(item.output);
        if (!plain_out && !agg_out) continue;
        // If the expression is NULL whenever column c is NULL, rejecting
        // NULL on the output rejects NULL on c.
        ColumnSet refs;
        CollectColumnRefs(item.expr, &refs);
        for (ColumnId c : refs) {
          if (child_cols.Contains(c) &&
              ExprNullOnNull(item.expr, ColumnSet{c})) {
            (plain_out ? down.plain : down.via_agg).Add(c);
          }
        }
      }
      return WithChildren(node, {Simplify(node->children[0], down)});
    }
    case RelKind::kGroupBy:
    case RelKind::kLocalGroupBy: {
      Rejection down;
      // Rejection on grouping columns stays valid: a padded row has NULL
      // group keys, so it can only live in a group the predicate rejects
      // wholesale.
      down.plain = rejected.plain.Intersect(node->group_cols);
      // The paper's extension: rejection on an aggregate output transfers
      // to the aggregate's input columns for NULL-on-all-NULL aggregates
      // (sum/min/max/max1row — not count, whose result is never NULL),
      // guarded by this GroupBy's grouping columns. Only plain rejection
      // is re-derived; via_agg evidence from an outer GroupBy would need
      // its own (stacked) guard, so it conservatively stops here.
      for (const AggItem& agg : node->aggs) {
        if (!rejected.plain.Contains(agg.output)) continue;
        if (agg.func == AggFunc::kCount || agg.func == AggFunc::kCountStar) {
          continue;
        }
        ColumnSet refs;
        CollectColumnRefs(agg.arg, &refs);
        for (ColumnId c : refs) {
          if (ExprNullOnNull(agg.arg, ColumnSet{c})) down.via_agg.Add(c);
        }
      }
      down.guard = node->group_cols;
      return WithChildren(node, {Simplify(node->children[0], down)});
    }
    case RelKind::kJoin: {
      const RelExprPtr& left = node->children[0];
      ColumnSet left_cols = left->OutputSet();
      JoinKind kind = node->join_kind;
      if (kind == JoinKind::kLeftOuter) {
        ColumnSet right_cols = node->children[1]->OutputSet();
        bool convert = rejected.plain.Intersects(right_cols);
        if (!convert && rejected.via_agg.Intersects(right_cols)) {
          // Aggregate-derived rejection: every group of the deriving
          // GroupBy must hold at most one preserved-side row's output.
          convert = HasKeyWithin(*left, rejected.guard.Intersect(left_cols));
        }
        if (convert) kind = JoinKind::kInner;  // the simplification
      }
      ColumnSet pred_rejects = NullRejectedColumns(node->predicate);
      Rejection left_down;
      left_down.plain = rejected.plain.Intersect(left_cols);
      left_down.via_agg = rejected.via_agg.Intersect(left_cols);
      left_down.guard = rejected.guard;
      Rejection right_down;
      if (kind == JoinKind::kInner || kind == JoinKind::kCross) {
        left_down.plain.AddAll(pred_rejects.Intersect(left_cols));
        ColumnSet right_cols = node->children[1]->OutputSet();
        right_down.plain =
            rejected.plain.Union(pred_rejects).Intersect(right_cols);
        right_down.via_agg = rejected.via_agg.Intersect(right_cols);
        right_down.guard = rejected.guard;
      }
      // kLeftSemi/kLeftAnti: right side is not produced; kLeftOuter that
      // stayed outer: rejection does not pass into the null-supplying side.
      std::vector<RelExprPtr> children = {
          Simplify(left, left_down), Simplify(node->children[1], right_down)};
      if (kind == node->join_kind) {
        return WithChildren(node, std::move(children));
      }
      RelExprPtr out = CloneWithChildren(*node, std::move(children));
      out->join_kind = kind;
      return out;
    }
    case RelKind::kApply: {
      const RelExprPtr& left = node->children[0];
      ColumnSet left_cols = left->OutputSet();
      ApplyKind kind = node->apply_kind;
      if (kind == ApplyKind::kOuter) {
        ColumnSet right_cols = node->children[1]->OutputSet();
        bool convert = rejected.plain.Intersects(right_cols);
        if (!convert && rejected.via_agg.Intersects(right_cols)) {
          convert = HasKeyWithin(*left, rejected.guard.Intersect(left_cols));
        }
        if (convert) kind = ApplyKind::kCross;
      }
      Rejection left_down;
      left_down.plain = rejected.plain.Intersect(left_cols);
      left_down.via_agg = rejected.via_agg.Intersect(left_cols);
      left_down.guard = rejected.guard;
      std::vector<RelExprPtr> children = {
          Simplify(left, left_down),
          Simplify(node->children[1], Rejection{})};
      if (kind == node->apply_kind) {
        return WithChildren(node, std::move(children));
      }
      RelExprPtr out = CloneWithChildren(*node, std::move(children));
      out->apply_kind = kind;
      return out;
    }
    case RelKind::kSort:
    case RelKind::kMax1row:
      return WithChildren(node, {Simplify(node->children[0], rejected)});
    case RelKind::kUnionAll: {
      std::vector<RelExprPtr> children;
      for (size_t i = 0; i < node->children.size(); ++i) {
        // Only plain rejection maps through: a via_agg guard names columns
        // that do not exist inside the branch, so its key test could never
        // be re-validated below the union.
        Rejection down;
        for (size_t k = 0; k < node->out_cols.size(); ++k) {
          if (rejected.plain.Contains(node->out_cols[k])) {
            down.plain.Add(node->input_maps[i][k]);
          }
        }
        children.push_back(Simplify(node->children[i], down));
      }
      return WithChildren(node, std::move(children));
    }
    default: {
      std::vector<RelExprPtr> children;
      for (const RelExprPtr& child : node->children) {
        children.push_back(Simplify(child, Rejection{}));
      }
      return WithChildren(node, std::move(children));
    }
  }
}

}  // namespace

RelExprPtr SimplifyOuterJoins(const RelExprPtr& root) {
  return Simplify(root, Rejection{});
}

}  // namespace orq
