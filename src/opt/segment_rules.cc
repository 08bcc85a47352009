#include <functional>
#include <map>

#include "algebra/expr_util.h"
#include "algebra/iso.h"
#include "algebra/props.h"
#include "opt/rules.h"

namespace orq {

namespace {

/// Collects column-equality classes implied by selections and inner-join
/// predicates inside `node` (stopping at operators that do not guarantee
/// the equalities at the output, e.g. outer joins' inner sides).
void CollectEqualities(const RelExprPtr& node,
                       std::vector<std::pair<ColumnId, ColumnId>>* pairs) {
  auto from_pred = [&pairs](const ScalarExprPtr& pred) {
    for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
      if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq &&
          c->children[0]->kind == ScalarKind::kColumnRef &&
          c->children[1]->kind == ScalarKind::kColumnRef) {
        pairs->emplace_back(c->children[0]->column, c->children[1]->column);
      }
    }
  };
  switch (node->kind) {
    case RelKind::kSelect:
      from_pred(node->predicate);
      CollectEqualities(node->children[0], pairs);
      break;
    case RelKind::kJoin:
      if (node->join_kind == JoinKind::kInner) {
        from_pred(node->predicate);
        CollectEqualities(node->children[0], pairs);
        CollectEqualities(node->children[1], pairs);
      }
      break;
    case RelKind::kProject:
      CollectEqualities(node->children[0], pairs);
      break;
    case RelKind::kApply:
      if (node->apply_kind == ApplyKind::kCross) {
        CollectEqualities(node->children[0], pairs);
        CollectEqualities(node->children[1], pairs);
      }
      break;
    default:
      break;
  }
}

/// Union-find view over the collected equalities.
class Closure {
 public:
  explicit Closure(const std::vector<std::pair<ColumnId, ColumnId>>& pairs) {
    for (const auto& [a, b] : pairs) Union(a, b);
  }
  bool Equal(ColumnId a, ColumnId b) {
    if (a == b) return true;
    return Find(a) == Find(b);
  }

 private:
  ColumnId Find(ColumnId id) {
    auto it = parent_.find(id);
    if (it == parent_.end() || it->second == id) {
      parent_[id] = id;
      return id;
    }
    return parent_[id] = Find(it->second);
  }
  void Union(ColumnId a, ColumnId b) { parent_[Find(a)] = Find(b); }
  std::map<ColumnId, ColumnId> parent_;
};

/// Descends X through selections and inner joins (including the
/// index-lookup form Apply-cross(Z, sigma_p(T)) of Join_p(Z, T) that
/// correlated re-introduction builds) looking for a subtree
/// isomorphic to E2 whose context preserves segments (the validation
/// described in DESIGN.md): sibling join inputs must join on
/// segment-equivalent columns and be keyed by them (all-or-none, at most
/// one row per segment), and selections on the path must not filter T's
/// own non-segment columns.
bool FindIsomorphicSubtree(
    const RelExprPtr& x, const RelExprPtr& e2, Closure* closure,
    const std::vector<std::pair<ColumnId, ColumnId>>& links,
    std::map<ColumnId, ColumnId>* iso_map) {
  std::map<ColumnId, ColumnId> m;
  if (RelTreesIsomorphic(e2, x, &m)) {
    bool linked = true;
    for (const auto& [e2_id, x_id] : links) {
      auto it = m.find(e2_id);
      if (it == m.end() || !closure->Equal(it->second, x_id)) {
        linked = false;
        break;
      }
    }
    if (linked) {
      *iso_map = std::move(m);
      return true;
    }
  }
  auto segment_equiv = [&](ColumnId id) {
    for (const auto& [e2_id, x_id] : links) {
      if (closure->Equal(id, x_id)) return true;
    }
    return false;
  };
  switch (x->kind) {
    case RelKind::kSelect: {
      const RelExprPtr& child = x->children[0];
      if (!FindIsomorphicSubtree(child, e2, closure, links, iso_map)) {
        return false;
      }
      // The selection must not filter individual T rows: every referenced
      // T column must be segment-equivalent.
      ColumnSet t_cols;
      for (const auto& [e2_id, t_id] : *iso_map) t_cols.Add(t_id);
      ColumnSet refs;
      CollectColumnRefsDeep(x->predicate, &refs);
      for (ColumnId id : refs) {
        if (t_cols.Contains(id) && !segment_equiv(id)) return false;
      }
      return true;
    }
    case RelKind::kJoin: {
      if (x->join_kind != JoinKind::kInner) return false;
      for (int side = 0; side < 2; ++side) {
        std::map<ColumnId, ColumnId> local;
        if (!FindIsomorphicSubtree(x->children[side], e2, closure, links,
                                   &local)) {
          continue;
        }
        const RelExprPtr& z = x->children[1 - side];
        ColumnSet z_cols = z->OutputSet();
        // Join conjuncts: segment-equivalent or Z columns only; collect
        // the Z columns equated to segment columns.
        ColumnSet z_equated;
        bool ok = true;
        for (const ScalarExprPtr& c : SplitConjuncts(x->predicate)) {
          ColumnSet refs;
          CollectColumnRefsDeep(c, &refs);
          for (ColumnId id : refs) {
            if (!z_cols.Contains(id) && !segment_equiv(id)) {
              ok = false;
              break;
            }
          }
          if (!ok) break;
          if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq &&
              c->children[0]->kind == ScalarKind::kColumnRef &&
              c->children[1]->kind == ScalarKind::kColumnRef) {
            ColumnId a = c->children[0]->column;
            ColumnId b = c->children[1]->column;
            if (z_cols.Contains(a) && segment_equiv(b)) z_equated.Add(a);
            if (z_cols.Contains(b) && segment_equiv(a)) z_equated.Add(b);
          }
        }
        if (!ok) continue;
        // Z contributes at most one row per segment: a key of Z must be
        // covered by the equated columns.
        if (!HasKeyWithin(*z, z_equated)) continue;
        *iso_map = std::move(local);
        return true;
      }
      return false;
    }
    case RelKind::kApply: {
      const RelExprPtr& inner = x->children[1];
      if (x->apply_kind != ApplyKind::kCross ||
          inner->kind != RelKind::kSelect) {
        return false;
      }
      return FindIsomorphicSubtree(
          MakeJoin(JoinKind::kInner, x->children[0], inner->children[0],
                   inner->predicate),
          e2, closure, links, iso_map);
    }
    default:
      return false;
  }
}

/// Shared detection + construction for SegmentApply introduction. Given
/// X, E2 and the linking equalities, validates the pattern and produces
/// the SegmentApply core: SA_{SC}(X, Join_{residual}(S1, G_F1(S2))).
struct SegmentBuild {
  bool ok = false;
  RelExprPtr sa;                       // the SegmentApply node
  std::map<ColumnId, ColumnId> x_to_s1;  // X output id -> S1 id
  ColumnSet segment_cols;
};

SegmentBuild BuildSegmentApplyCore(
    const RelExprPtr& x, const RelExprPtr& e2,
    const std::vector<std::pair<ColumnId, ColumnId>>& links,
    const std::vector<AggItem>& aggs, const ScalarExprPtr& residual,
    ColumnManager* columns) {
  SegmentBuild out;
  if (links.empty()) return out;
  if (!FreeVariables(*e2).empty()) return out;
  // NULL-valued segment keys would form segments (grouping semantics)
  // although SQL equality never matches NULL: require non-NULL links.
  ColumnSet x_not_null = NotNullColumns(*x);
  for (const auto& [e2_id, x_id] : links) {
    if (!x_not_null.Contains(x_id)) return out;
  }
  std::vector<std::pair<ColumnId, ColumnId>> eq_pairs;
  CollectEqualities(x, &eq_pairs);
  Closure closure(eq_pairs);
  std::map<ColumnId, ColumnId> iso_map;  // E2 id -> T id
  if (!FindIsomorphicSubtree(x, e2, &closure, links, &iso_map)) return out;

  std::vector<ColumnId> x_out = x->OutputColumns();
  std::vector<ColumnId> s1_ids, s2_ids;
  std::map<ColumnId, ColumnId> x_to_s2;
  for (ColumnId id : x_out) {
    ColumnId s1 =
        columns->NewColumn(columns->name(id), columns->type(id), true);
    ColumnId s2 =
        columns->NewColumn(columns->name(id), columns->type(id), true);
    s1_ids.push_back(s1);
    s2_ids.push_back(s2);
    out.x_to_s1[id] = s1;
    x_to_s2[id] = s2;
  }
  // Aggregate args: E2 id -> T id (iso) -> S2 id (positional).
  std::map<ColumnId, ColumnId> arg_map;
  for (const auto& [e2_id, t_id] : iso_map) {
    auto it = x_to_s2.find(t_id);
    if (it != x_to_s2.end()) arg_map[e2_id] = it->second;
  }
  std::vector<AggItem> seg_aggs;
  for (const AggItem& agg : aggs) {
    AggItem copy = agg;
    if (copy.arg != nullptr) {
      ScalarExprPtr remapped = RemapColumns(copy.arg, arg_map);
      ColumnSet refs;
      CollectColumnRefs(remapped, &refs);
      if (!refs.IsSubsetOf(ColumnSet(s2_ids))) return out;
      copy.arg = std::move(remapped);
    }
    seg_aggs.push_back(std::move(copy));
  }
  ScalarExprPtr inner_pred = TrueLiteral();
  if (residual != nullptr) {
    inner_pred = RemapColumns(residual, out.x_to_s1);
  }
  RelExprPtr inner = MakeJoin(
      JoinKind::kInner, MakeSegmentRef(s1_ids),
      MakeScalarGroupBy(MakeSegmentRef(s2_ids), std::move(seg_aggs)),
      std::move(inner_pred));
  for (const auto& [e2_id, x_id] : links) out.segment_cols.Add(x_id);
  out.sa = MakeSegmentApply(x, std::move(inner), out.segment_cols, s1_ids);
  out.ok = true;
  return out;
}

/// SegmentApply introduction, pattern A (paper section 3.4.1): the shape
/// correlation removal produces for scalar-aggregate subqueries:
///
///   G_{A,F}( X ⋈p E2 )    (⋈ inner / left outer / the re-correlated
///                          Apply(X, sigma_p(E2)) the greedy pass forms)
///
/// becomes  π( X SA_{SC} ( S1 × G_F1(S2) ) ).
class SegmentApplyIntroRule : public Rule {
 public:
  const char* name() const override { return "SegmentApplyIntro"; }

  std::vector<RelExprPtr> Apply(const RelExprPtr& node,
                                ColumnManager* columns,
                                CostModel*) const override {
    if (node->kind != RelKind::kGroupBy || node->scalar_agg) return {};
    const RelExprPtr& join = node->children[0];
    RelExprPtr x, e2;
    ScalarExprPtr link_pred;
    if (join->kind == RelKind::kJoin &&
        (join->join_kind == JoinKind::kInner ||
         join->join_kind == JoinKind::kLeftOuter)) {
      x = join->children[0];
      e2 = join->children[1];
      link_pred = join->predicate;
    } else if (join->kind == RelKind::kApply &&
               (join->apply_kind == ApplyKind::kCross ||
                join->apply_kind == ApplyKind::kOuter) &&
               join->children[1]->kind == RelKind::kSelect) {
      x = join->children[0];
      e2 = join->children[1]->children[0];
      link_pred = join->children[1]->predicate;
    } else {
      return {};
    }
    ColumnSet x_cols = x->OutputSet();
    ColumnSet e2_cols = e2->OutputSet();

    // Per-X-row grouping over X columns only.
    if (!node->group_cols.IsSubsetOf(x_cols)) return {};
    if (!HasKeyWithin(*x, node->group_cols)) return {};
    for (const AggItem& agg : node->aggs) {
      ColumnSet refs;
      CollectColumnRefsDeep(agg.arg, &refs);
      if (!refs.IsSubsetOf(e2_cols)) return {};
      if (agg.distinct) return {};
    }
    // The join predicate must consist solely of E2-col = X-col equalities.
    std::vector<std::pair<ColumnId, ColumnId>> links;  // (e2col, xcol)
    for (const ScalarExprPtr& c : SplitConjuncts(link_pred)) {
      if (c->kind != ScalarKind::kCompare || c->cmp != CompareOp::kEq ||
          c->children[0]->kind != ScalarKind::kColumnRef ||
          c->children[1]->kind != ScalarKind::kColumnRef) {
        return {};
      }
      ColumnId a = c->children[0]->column;
      ColumnId b = c->children[1]->column;
      if (e2_cols.Contains(a) && x_cols.Contains(b)) {
        links.emplace_back(a, b);
      } else if (e2_cols.Contains(b) && x_cols.Contains(a)) {
        links.emplace_back(b, a);
      } else {
        return {};
      }
    }
    SegmentBuild build = BuildSegmentApplyCore(x, e2, links, node->aggs,
                                               nullptr, columns);
    if (!build.ok) return {};
    // Restore the original output ids: grouping columns through S1, the
    // aggregate outputs pass through.
    std::vector<ProjectItem> items;
    ColumnSet pass;
    for (ColumnId a : node->group_cols) {
      if (build.segment_cols.Contains(a)) {
        pass.Add(a);
      } else {
        items.push_back(ProjectItem{a, CRef(*columns, build.x_to_s1.at(a))});
      }
    }
    for (const AggItem& agg : node->aggs) pass.Add(agg.output);
    return {MakeProject(build.sa, std::move(items), std::move(pass))};
  }
};

/// SegmentApply introduction, pattern B (the paper's own presentation in
/// 3.4.1, Fig. 6): "two instances of an expression connected by a join,
/// where one of the expressions may optionally have an extra aggregate":
///
///   X ⋈p G_{A2,F2}(E2)
///
/// with p = linking equalities ∧ residual (e.g. l_quantity < x). The
/// residual moves inside the segment: X SA_{SC}(Join_{res}(S1, G_F1(S2))).
class SegmentApplyJoinIntroRule : public Rule {
 public:
  const char* name() const override { return "SegmentApplyJoinIntro"; }

  std::vector<RelExprPtr> Apply(const RelExprPtr& node,
                                ColumnManager* columns,
                                CostModel*) const override {
    if (node->kind != RelKind::kJoin || node->join_kind != JoinKind::kInner) {
      return {};
    }
    const RelExprPtr& x = node->children[0];
    RelExprPtr right = node->children[1];
    // A derived-table formulation computes the aggregate expression in a
    // Project above the GroupBy (e.g. x = 0.2 * avg): look through it by
    // substituting its items into the join predicate.
    ScalarExprPtr predicate = node->predicate;
    std::vector<ProjectItem> restore_items;
    if (right->kind == RelKind::kProject) {
      std::map<ColumnId, ScalarExprPtr> defs;
      for (const ProjectItem& item : right->proj_items) {
        defs[item.output] = item.expr;
        restore_items.push_back(item);
      }
      predicate = SubstituteColumns(predicate, defs);
      right = right->children[0];
    }
    const RelExprPtr& group = right;
    if (group->kind != RelKind::kGroupBy || group->scalar_agg) return {};
    const RelExprPtr& e2 = group->children[0];
    ColumnSet x_cols = x->OutputSet();
    ColumnSet group_out = group->OutputSet();

    for (const AggItem& agg : group->aggs) {
      if (agg.distinct) return {};
    }
    // Split the predicate into linking equalities (grouping col = X col)
    // and residual conjuncts over X cols + aggregate outputs.
    std::vector<std::pair<ColumnId, ColumnId>> links;  // (A2 col, x col)
    std::vector<ScalarExprPtr> residual;
    ColumnSet linked_a2;
    for (const ScalarExprPtr& c : SplitConjuncts(predicate)) {
      bool is_link = false;
      if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq &&
          c->children[0]->kind == ScalarKind::kColumnRef &&
          c->children[1]->kind == ScalarKind::kColumnRef) {
        ColumnId a = c->children[0]->column;
        ColumnId b = c->children[1]->column;
        if (group->group_cols.Contains(a) && x_cols.Contains(b)) {
          links.emplace_back(a, b);
          linked_a2.Add(a);
          is_link = true;
        } else if (group->group_cols.Contains(b) && x_cols.Contains(a)) {
          links.emplace_back(b, a);
          linked_a2.Add(b);
          is_link = true;
        }
      }
      if (!is_link) residual.push_back(c);
    }
    // Every grouping column must be linked: the aggregate is then exactly
    // one row per segment.
    if (!group->group_cols.IsSubsetOf(linked_a2)) return {};
    for (const ScalarExprPtr& c : residual) {
      ColumnSet refs;
      CollectColumnRefsDeep(c, &refs);
      if (!refs.IsSubsetOf(x_cols.Union(group_out))) return {};
    }

    SegmentBuild build = BuildSegmentApplyCore(
        x, e2, links, group->aggs,
        residual.empty() ? nullptr : MakeAnd(residual), columns);
    if (!build.ok) return {};
    // Restore the original output shape. Grouping columns equal their
    // linked segment column on every surviving row; Project-computed
    // expressions are recomputed from the segment aggregates.
    std::map<ColumnId, ColumnId> a2_to_x;
    for (const auto& [a2_id, x_id] : links) a2_to_x[a2_id] = x_id;
    ColumnSet agg_outs;
    for (const AggItem& agg : group->aggs) agg_outs.Add(agg.output);

    std::vector<ProjectItem> items;
    ColumnSet pass = build.segment_cols;
    for (ColumnId id : x->OutputColumns()) {
      if (!build.segment_cols.Contains(id)) {
        items.push_back(ProjectItem{id, CRef(*columns, build.x_to_s1.at(id))});
      }
    }
    const RelExprPtr& original_right = node->children[1];
    if (original_right->kind == RelKind::kProject) {
      for (const ProjectItem& item : restore_items) {
        items.push_back(
            ProjectItem{item.output, RemapColumns(item.expr, a2_to_x)});
      }
      for (ColumnId p : original_right->passthrough) {
        if (agg_outs.Contains(p)) {
          pass.Add(p);
        } else if (a2_to_x.count(p) > 0) {
          items.push_back(ProjectItem{p, CRef(*columns, a2_to_x.at(p))});
        } else {
          return {};  // untraceable passthrough column
        }
      }
    } else {
      for (const auto& [a2_id, x_id] : links) {
        items.push_back(ProjectItem{a2_id, CRef(*columns, x_id)});
      }
      for (const AggItem& agg : group->aggs) pass.Add(agg.output);
    }
    return {MakeProject(build.sa, std::move(items), std::move(pass))};
  }
};

/// SegmentApply introduction for existential subqueries (paper 3.4.1:
/// "Removing correlations for an existential subquery generates a
/// semijoin, or antisemijoin. The argument in the previous section is
/// valid for those operators too ... The only difference is in the
/// correlated expression"):
///
///   X ⋉p E2   (or ▷p)   with  iso(T ⊆ X, E2),  p = links ∧ residual
///   ->  π( X SA_{SC}( S1 ⋉_{residual'} S2 ) )
class SegmentApplySemiJoinIntroRule : public Rule {
 public:
  const char* name() const override { return "SegmentApplySemiJoinIntro"; }

  std::vector<RelExprPtr> Apply(const RelExprPtr& node,
                                ColumnManager* columns,
                                CostModel*) const override {
    if (node->kind != RelKind::kJoin ||
        (node->join_kind != JoinKind::kLeftSemi &&
         node->join_kind != JoinKind::kLeftAnti)) {
      return {};
    }
    const RelExprPtr& x = node->children[0];
    const RelExprPtr& e2 = node->children[1];
    ColumnSet x_cols = x->OutputSet();
    ColumnSet e2_cols = e2->OutputSet();
    if (!FreeVariables(*e2).empty()) return {};

    std::vector<std::pair<ColumnId, ColumnId>> links;  // (e2col, xcol)
    std::vector<ScalarExprPtr> residual;
    for (const ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
      bool is_link = false;
      if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq &&
          c->children[0]->kind == ScalarKind::kColumnRef &&
          c->children[1]->kind == ScalarKind::kColumnRef) {
        ColumnId a = c->children[0]->column;
        ColumnId b = c->children[1]->column;
        if (e2_cols.Contains(a) && x_cols.Contains(b)) {
          links.emplace_back(a, b);
          is_link = true;
        } else if (e2_cols.Contains(b) && x_cols.Contains(a)) {
          links.emplace_back(b, a);
          is_link = true;
        }
      }
      if (!is_link) residual.push_back(c);
    }
    if (links.empty()) return {};
    ColumnSet x_not_null = NotNullColumns(*x);
    for (const auto& [e2_id, x_id] : links) {
      if (!x_not_null.Contains(x_id)) return {};
    }
    std::vector<std::pair<ColumnId, ColumnId>> eq_pairs;
    CollectEqualities(x, &eq_pairs);
    Closure closure(eq_pairs);
    std::map<ColumnId, ColumnId> iso_map;
    if (!FindIsomorphicSubtree(x, e2, &closure, links, &iso_map)) return {};

    // Segment scans: S1 streams the segment (X rows), S2 replays it as
    // the inner instance; residual conjuncts remap X -> S1, E2 -> S2.
    std::vector<ColumnId> x_out = x->OutputColumns();
    std::vector<ColumnId> s1_ids, s2_ids;
    std::map<ColumnId, ColumnId> remap;   // X id -> S1 id, E2 id -> S2 id
    std::map<ColumnId, ColumnId> x_to_s1;
    std::map<ColumnId, ColumnId> t_to_s2;
    for (ColumnId id : x_out) {
      ColumnId s1 =
          columns->NewColumn(columns->name(id), columns->type(id), true);
      ColumnId s2 =
          columns->NewColumn(columns->name(id), columns->type(id), true);
      s1_ids.push_back(s1);
      s2_ids.push_back(s2);
      x_to_s1[id] = s1;
      t_to_s2[id] = s2;
      remap[id] = s1;
    }
    for (const auto& [e2_id, t_id] : iso_map) {
      auto it = t_to_s2.find(t_id);
      if (it == t_to_s2.end()) return {};
      remap[e2_id] = it->second;
    }
    std::vector<ScalarExprPtr> inner_pred;
    for (const ScalarExprPtr& c : residual) {
      ScalarExprPtr remapped = RemapColumns(c, remap);
      ColumnSet refs;
      CollectColumnRefs(remapped, &refs);
      if (!refs.IsSubsetOf(ColumnSet(s1_ids).Union(ColumnSet(s2_ids)))) {
        return {};
      }
      inner_pred.push_back(std::move(remapped));
    }
    JoinKind inner_kind = node->join_kind;  // semi stays semi, anti anti
    RelExprPtr inner =
        MakeJoin(inner_kind, MakeSegmentRef(s1_ids), MakeSegmentRef(s2_ids),
                 MakeAnd(std::move(inner_pred)));
    ColumnSet segment_cols;
    for (const auto& [e2_id, x_id] : links) segment_cols.Add(x_id);
    RelExprPtr sa =
        MakeSegmentApply(x, std::move(inner), segment_cols, s1_ids);
    // Restore X's output ids (the semijoin exposes only the left side).
    std::vector<ProjectItem> items;
    ColumnSet pass = segment_cols;
    for (ColumnId id : x_out) {
      if (!segment_cols.Contains(id)) {
        items.push_back(ProjectItem{id, CRef(*columns, x_to_s1.at(id))});
      }
    }
    return {MakeProject(std::move(sa), std::move(items), std::move(pass))};
  }
};

/// (R SA_A E) ⋈p Z  =  (R ⋈p Z) SA_{A ∪ cols(Z)} E
/// iff cols(p) ⊆ A ∪ cols(Z)  (paper section 3.4.2).
class JoinPushBelowSegmentApplyRule : public Rule {
 public:
  const char* name() const override { return "JoinPushBelowSegmentApply"; }

  std::vector<RelExprPtr> Apply(const RelExprPtr& node,
                                ColumnManager* columns,
                                CostModel*) const override {
    if (node->kind != RelKind::kJoin || node->join_kind != JoinKind::kInner) {
      return {};
    }
    const RelExprPtr& sa = node->children[0];
    const RelExprPtr& z = node->children[1];
    if (sa->kind != RelKind::kSegmentApply) return {};
    ColumnSet z_cols = z->OutputSet();
    ColumnSet pred_refs;
    CollectColumnRefsDeep(node->predicate, &pred_refs);
    if (!pred_refs.IsSubsetOf(sa->segment_cols.Union(z_cols))) return {};

    RelExprPtr new_input = MakeJoin(JoinKind::kInner, sa->children[0], z,
                                    node->predicate);
    // SegmentRef leaves widen positionally: the joined Z columns get fresh
    // ids appended to each segment reference.
    std::vector<ColumnId> z_out = z->OutputColumns();
    std::function<RelExprPtr(const RelExprPtr&)> widen =
        [&](const RelExprPtr& n) -> RelExprPtr {
      if (n->kind == RelKind::kSegmentRef) {
        std::vector<ColumnId> cols = n->segment_out_cols;
        for (ColumnId zc : z_out) {
          cols.push_back(columns->NewColumn(columns->name(zc),
                                            columns->type(zc), true));
        }
        return MakeSegmentRef(std::move(cols));
      }
      std::vector<RelExprPtr> children;
      for (const RelExprPtr& child : n->children) {
        children.push_back(widen(child));
      }
      return CloneWithChildren(*n, std::move(children));
    };
    RelExprPtr new_inner = widen(sa->children[1]);
    RelExprPtr new_sa = MakeSegmentApply(
        std::move(new_input), std::move(new_inner),
        sa->segment_cols.Union(z_cols), sa->segment_out_cols);
    // Output shape: the pushed form exposes segment cols (now incl. Z) +
    // inner outputs; the original exposed SA outputs + Z cols — same set.
    return {new_sa};
  }
};

}  // namespace

std::unique_ptr<Rule> MakeSegmentApplyIntroRule() {
  return std::make_unique<SegmentApplyIntroRule>();
}

std::unique_ptr<Rule> MakeSegmentApplyJoinIntroRule() {
  return std::make_unique<SegmentApplyJoinIntroRule>();
}

std::unique_ptr<Rule> MakeSegmentApplySemiJoinIntroRule() {
  return std::make_unique<SegmentApplySemiJoinIntroRule>();
}

std::unique_ptr<Rule> MakeJoinPushBelowSegmentApplyRule() {
  return std::make_unique<JoinPushBelowSegmentApplyRule>();
}

}  // namespace orq
