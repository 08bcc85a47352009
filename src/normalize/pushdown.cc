#include "normalize/pushdown.h"

#include <algorithm>
#include <map>

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "catalog/table.h"

namespace orq {

namespace {

/// Union-find over column ids for equality-closure inference.
class EqClasses {
 public:
  ColumnId Find(ColumnId id) {
    auto it = parent_.find(id);
    if (it == parent_.end()) {
      parent_[id] = id;
      return id;
    }
    if (it->second == id) return id;
    ColumnId root = Find(it->second);
    parent_[id] = root;
    return root;
  }
  void Union(ColumnId a, ColumnId b) { parent_[Find(a)] = Find(b); }
  const std::map<ColumnId, ColumnId>& parents() const { return parent_; }

 private:
  std::map<ColumnId, ColumnId> parent_;
};

bool IsColEqCol(const ScalarExprPtr& e, ColumnId* a, ColumnId* b) {
  if (e->kind != ScalarKind::kCompare || e->cmp != CompareOp::kEq) {
    return false;
  }
  if (e->children[0]->kind != ScalarKind::kColumnRef ||
      e->children[1]->kind != ScalarKind::kColumnRef) {
    return false;
  }
  *a = e->children[0]->column;
  *b = e->children[1]->column;
  return true;
}

/// Adds implied column equalities (transitive closure) to `conjuncts`.
void AddEqualityClosure(std::vector<ScalarExprPtr>* conjuncts,
                        ColumnManager* columns) {
  EqClasses classes;
  std::vector<std::pair<ColumnId, ColumnId>> present;
  for (const ScalarExprPtr& c : *conjuncts) {
    ColumnId a, b;
    if (IsColEqCol(c, &a, &b)) {
      classes.Union(a, b);
      present.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  if (present.empty()) return;
  // Group members per class root.
  std::map<ColumnId, std::vector<ColumnId>> members;
  for (const auto& [id, unused] : classes.parents()) {
    members[classes.Find(id)].push_back(id);
  }
  auto has_pair = [&present](ColumnId a, ColumnId b) {
    return std::find(present.begin(), present.end(),
                     std::make_pair(std::min(a, b), std::max(a, b))) !=
           present.end();
  };
  for (const auto& [root, ids] : members) {
    for (size_t i = 0; i < ids.size(); ++i) {
      for (size_t j = i + 1; j < ids.size(); ++j) {
        if (!has_pair(ids[i], ids[j])) {
          conjuncts->push_back(Eq(CRef(*columns, ids[i]),
                                  CRef(*columns, ids[j])));
          present.emplace_back(std::min(ids[i], ids[j]),
                               std::max(ids[i], ids[j]));
        }
      }
    }
  }
}

class Pushdown {
 public:
  explicit Pushdown(ColumnManager* columns) : columns_(columns) {}

  RelExprPtr Rewrite(const RelExprPtr& node) {
    std::vector<RelExprPtr> children;
    bool changed = false;
    for (const RelExprPtr& child : node->children) {
      RelExprPtr rewritten = Rewrite(child);
      changed |= rewritten != child;
      children.push_back(std::move(rewritten));
    }
    RelExprPtr current =
        changed ? CloneWithChildren(*node, std::move(children)) : node;
    // Iterate local rules to a bounded fixpoint.
    for (int round = 0; round < 8; ++round) {
      RelExprPtr next = Step(current);
      if (next == current) break;
      current = next;
    }
    return current;
  }

 private:
  RelExprPtr Step(const RelExprPtr& node) {
    switch (node->kind) {
      case RelKind::kSelect:
        return StepSelect(node);
      case RelKind::kProject:
        return StepProject(node);
      case RelKind::kJoin:
        return StepJoin(node);
      default:
        return node;
    }
  }

  RelExprPtr StepSelect(const RelExprPtr& node) {
    const RelExprPtr& child = node->children[0];
    if (IsTrueLiteral(node->predicate)) return child;
    switch (child->kind) {
      case RelKind::kSelect: {
        return MakeSelect(child->children[0],
                          MakeAnd2(child->predicate, node->predicate));
      }
      case RelKind::kProject: {
        // sigma_p(pi(X)) = pi(sigma_p'(X)), substituting computed columns.
        std::map<ColumnId, ScalarExprPtr> defs;
        for (const ProjectItem& item : child->proj_items) {
          defs[item.output] = item.expr;
        }
        ScalarExprPtr substituted =
            SubstituteColumns(node->predicate, defs);
        return CloneWithChildren(
            *child, {MakeSelect(child->children[0], substituted)});
      }
      case RelKind::kJoin: {
        JoinKind jk = child->join_kind;
        ColumnSet left_cols = child->children[0]->OutputSet();
        ColumnSet right_cols =
            (jk == JoinKind::kLeftSemi || jk == JoinKind::kLeftAnti)
                ? ColumnSet()
                : child->children[1]->OutputSet();
        std::vector<ScalarExprPtr> stay, to_left, to_right, to_join;
        for (const ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
          ColumnSet refs;
          CollectColumnRefsDeep(c, &refs);
          if (refs.IsSubsetOf(left_cols)) {
            to_left.push_back(c);
          } else if (jk == JoinKind::kInner &&
                     refs.IsSubsetOf(right_cols)) {
            to_right.push_back(c);
          } else if (jk == JoinKind::kInner || jk == JoinKind::kCross) {
            to_join.push_back(c);
          } else {
            stay.push_back(c);
          }
        }
        if (to_left.empty() && to_right.empty() && to_join.empty()) {
          return node;
        }
        RelExprPtr left = child->children[0];
        RelExprPtr right = child->children[1];
        if (!to_left.empty()) left = MakeSelect(left, MakeAnd(to_left));
        if (!to_right.empty()) right = MakeSelect(right, MakeAnd(to_right));
        ScalarExprPtr pred = child->predicate;
        if (!to_join.empty()) {
          to_join.push_back(pred);
          pred = MakeAnd(to_join);
        }
        JoinKind new_kind =
            (jk == JoinKind::kCross && !IsTrueLiteral(pred)) ? JoinKind::kInner
                                                             : jk;
        RelExprPtr joined = MakeJoin(new_kind, left, right, pred);
        if (stay.empty()) return joined;
        return MakeSelect(joined, MakeAnd(stay));
      }
      case RelKind::kGroupBy:
      case RelKind::kLocalGroupBy: {
        // Filter/GroupBy reorder (section 3.1): push conjuncts whose
        // columns are all grouping columns.
        if (child->scalar_agg) return node;
        std::vector<ScalarExprPtr> stay, push;
        for (const ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
          ColumnSet refs;
          CollectColumnRefsDeep(c, &refs);
          (refs.IsSubsetOf(child->group_cols) ? push : stay).push_back(c);
        }
        if (push.empty()) return node;
        RelExprPtr pushed = CloneWithChildren(
            *child, {MakeSelect(child->children[0], MakeAnd(push))});
        if (stay.empty()) return pushed;
        return MakeSelect(pushed, MakeAnd(stay));
      }
      case RelKind::kUnionAll: {
        // Distribute the filter into every branch (remapped).
        std::vector<RelExprPtr> branches;
        for (size_t i = 0; i < child->children.size(); ++i) {
          std::map<ColumnId, ColumnId> remap;
          for (size_t k = 0; k < child->out_cols.size(); ++k) {
            remap[child->out_cols[k]] = child->input_maps[i][k];
          }
          branches.push_back(MakeSelect(
              child->children[i], RemapColumns(node->predicate, remap)));
        }
        return CloneWithChildren(*child, std::move(branches));
      }
      case RelKind::kApply: {
        // Conjuncts over outer columns only can filter before the apply.
        ColumnSet left_cols = child->children[0]->OutputSet();
        std::vector<ScalarExprPtr> stay, push;
        for (const ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
          ColumnSet refs;
          CollectColumnRefsDeep(c, &refs);
          (refs.IsSubsetOf(left_cols) ? push : stay).push_back(c);
        }
        if (push.empty()) return node;
        RelExprPtr pushed = CloneWithChildren(
            *child, {MakeSelect(child->children[0], MakeAnd(push)),
                     child->children[1]});
        if (stay.empty()) return pushed;
        return MakeSelect(pushed, MakeAnd(stay));
      }
      case RelKind::kSort: {
        if (child->limit >= 0) return node;
        return CloneWithChildren(
            *child, {MakeSelect(child->children[0], node->predicate)});
      }
      default:
        return node;
    }
  }

  RelExprPtr StepProject(const RelExprPtr& node) {
    const RelExprPtr& child = node->children[0];
    // Identity project: nothing computed, everything passes.
    if (node->proj_items.empty() &&
        node->passthrough.ContainsAll(child->OutputSet())) {
      return child;
    }
    if (child->kind != RelKind::kProject) return node;
    std::map<ColumnId, ScalarExprPtr> defs;
    for (const ProjectItem& item : child->proj_items) {
      defs[item.output] = item.expr;
    }
    std::vector<ProjectItem> items;
    for (const ProjectItem& item : node->proj_items) {
      items.push_back(
          ProjectItem{item.output, SubstituteColumns(item.expr, defs)});
    }
    // Inner computed columns that the outer forwards must stay computed.
    ColumnSet pass;
    for (ColumnId id : node->passthrough) {
      auto it = defs.find(id);
      if (it != defs.end()) {
        items.push_back(ProjectItem{id, it->second});
      } else if (child->passthrough.Contains(id)) {
        pass.Add(id);
      }
    }
    return MakeProject(child->children[0], std::move(items), std::move(pass));
  }

  RelExprPtr StepJoin(const RelExprPtr& node) {
    if (node->join_kind == JoinKind::kInner) return StepInnerJoin(node);
    if (node->join_kind == JoinKind::kCross) return node;
    return StepNonInnerJoin(node);
  }

  /// Single-side conjuncts of an outer, semi or anti join's ON clause.
  /// A right-only conjunct only decides which right rows can match, so it
  /// filters the right input for all three kinds. A left-only conjunct
  /// filters the left input of a semi join (a left row that fails it has
  /// no match and is dropped either way), but must stay put for outer and
  /// anti joins, which emit exactly those unmatched left rows.
  RelExprPtr StepNonInnerJoin(const RelExprPtr& node) {
    const bool semi = node->join_kind == JoinKind::kLeftSemi;
    ColumnSet left_cols = node->children[0]->OutputSet();
    ColumnSet right_cols = node->children[1]->OutputSet();
    std::vector<ScalarExprPtr> keep, to_left, to_right;
    for (const ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
      ColumnSet refs;
      CollectColumnRefsDeep(c, &refs);
      if (semi && refs.IsSubsetOf(left_cols)) {
        to_left.push_back(c);
      } else if (refs.IsSubsetOf(right_cols)) {
        to_right.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (to_left.empty() && to_right.empty()) return node;
    RelExprPtr left = node->children[0];
    RelExprPtr right = node->children[1];
    if (!to_left.empty()) left = MakeSelect(left, MakeAnd(to_left));
    if (!to_right.empty()) right = MakeSelect(right, MakeAnd(to_right));
    return MakeJoin(node->join_kind, std::move(left), std::move(right),
                    MakeAnd(std::move(keep)));
  }

  RelExprPtr StepInnerJoin(const RelExprPtr& node) {
    std::vector<ScalarExprPtr> conjuncts = SplitConjuncts(node->predicate);
    size_t before = conjuncts.size();
    AddEqualityClosure(&conjuncts, columns_);
    ColumnSet left_cols = node->children[0]->OutputSet();
    ColumnSet right_cols = node->children[1]->OutputSet();
    std::vector<ScalarExprPtr> keep, to_left, to_right;
    for (const ScalarExprPtr& c : conjuncts) {
      ColumnSet refs;
      CollectColumnRefsDeep(c, &refs);
      if (refs.IsSubsetOf(left_cols)) {
        to_left.push_back(c);
      } else if (refs.IsSubsetOf(right_cols)) {
        to_right.push_back(c);
      } else {
        keep.push_back(c);
      }
    }
    if (to_left.empty() && to_right.empty() && conjuncts.size() == before) {
      return node;
    }
    RelExprPtr left = node->children[0];
    RelExprPtr right = node->children[1];
    if (!to_left.empty()) left = MakeSelect(left, MakeAnd(to_left));
    if (!to_right.empty()) right = MakeSelect(right, MakeAnd(to_right));
    return MakeJoin(JoinKind::kInner, std::move(left), std::move(right),
                    MakeAnd(std::move(keep)));
  }

  ColumnManager* columns_;
};

// ---- column pruning ----

/// Functional dependencies from base-table keys: for every Get in the
/// tree, its key columns determine its other columns.
void CollectBaseKeyFds(const RelExprPtr& node,
                       std::vector<std::pair<ColumnSet, ColumnSet>>* fds) {
  if (node->kind == RelKind::kGet) {
    ColumnSet all(node->get_cols);
    for (const std::vector<int>& unique : node->table->unique_keys()) {
      ColumnSet key;
      bool covered = true;
      for (int ordinal : unique) {
        bool found = false;
        for (size_t i = 0; i < node->get_ordinals.size(); ++i) {
          if (node->get_ordinals[i] == ordinal) {
            key.Add(node->get_cols[i]);
            found = true;
          }
        }
        if (!found) covered = false;
      }
      if (covered) fds->emplace_back(std::move(key), all);
    }
    return;
  }
  for (const RelExprPtr& child : node->children) {
    CollectBaseKeyFds(child, fds);
  }
}

class Pruner {
 public:
  explicit Pruner(ColumnManager* columns) : columns_(columns) {}

  RelExprPtr Prune(const RelExprPtr& node, const ColumnSet& needed_in) {
    ColumnSet needed = needed_in;
    switch (node->kind) {
      case RelKind::kGet: {
        // Keep needed columns plus the primary key (key derivations feed
        // the reorder rules; see DESIGN.md).
        std::vector<ColumnId> cols;
        std::vector<int> ordinals;
        ColumnSet keep = needed;
        for (const std::vector<int>& key : node->table->unique_keys()) {
          for (int ordinal : key) {
            for (size_t i = 0; i < node->get_ordinals.size(); ++i) {
              if (node->get_ordinals[i] == ordinal) {
                keep.Add(node->get_cols[i]);
              }
            }
          }
        }
        for (size_t i = 0; i < node->get_cols.size(); ++i) {
          if (keep.Contains(node->get_cols[i])) {
            cols.push_back(node->get_cols[i]);
            ordinals.push_back(node->get_ordinals[i]);
          }
        }
        if (cols.size() == node->get_cols.size()) return node;
        RelExprPtr out = CloneWithChildren(*node, {});
        out->get_cols = std::move(cols);
        out->get_ordinals = std::move(ordinals);
        return out;
      }
      case RelKind::kSelect: {
        CollectColumnRefsDeep(node->predicate, &needed);
        return CloneWithChildren(*node,
                                 {Prune(node->children[0], needed)});
      }
      case RelKind::kProject: {
        std::vector<ProjectItem> items;
        ColumnSet child_needed;
        ColumnSet pass;
        for (const ProjectItem& item : node->proj_items) {
          if (!needed.Contains(item.output)) continue;
          items.push_back(item);
          CollectColumnRefsDeep(item.expr, &child_needed);
        }
        for (ColumnId id : node->passthrough) {
          if (needed.Contains(id)) {
            pass.Add(id);
            child_needed.Add(id);
          }
        }
        RelExprPtr child = Prune(node->children[0], child_needed);
        if (items.empty() && pass.ContainsAll(child->OutputSet())) {
          return child;
        }
        return MakeProject(std::move(child), std::move(items),
                           std::move(pass));
      }
      case RelKind::kJoin: {
        CollectColumnRefsDeep(node->predicate, &needed);
        ColumnSet left_needed =
            needed.Intersect(node->children[0]->OutputSet());
        ColumnSet right_needed =
            needed.Intersect(node->children[1]->OutputSet());
        return CloneWithChildren(
            *node, {Prune(node->children[0], left_needed),
                    Prune(node->children[1], right_needed)});
      }
      case RelKind::kApply: {
        ColumnSet params = FreeVariables(*node->children[1])
                               .Intersect(node->children[0]->OutputSet());
        ColumnSet left_needed =
            needed.Intersect(node->children[0]->OutputSet()).Union(params);
        ColumnSet right_needed =
            needed.Intersect(node->children[1]->OutputSet());
        return CloneWithChildren(
            *node, {Prune(node->children[0], left_needed),
                    Prune(node->children[1], right_needed)});
      }
      case RelKind::kGroupBy:
      case RelKind::kLocalGroupBy: {
        // Grouping columns not needed above can be dropped when they are
        // functionally determined by grouping columns that remain (a base
        // table's key determines its other columns), so groups are
        // unchanged.
        ColumnSet group_cols = node->group_cols;
        if (node->kind == RelKind::kGroupBy && !node->scalar_agg) {
          std::vector<std::pair<ColumnSet, ColumnSet>> fds;
          CollectBaseKeyFds(node->children[0], &fds);
          for (const auto& [key, determined] : fds) {
            if (!key.IsSubsetOf(group_cols)) continue;
            ColumnSet droppable =
                group_cols.Intersect(determined).Minus(key).Minus(needed);
            group_cols = group_cols.Minus(droppable);
          }
        }
        std::vector<AggItem> aggs;
        ColumnSet child_needed = group_cols;
        for (const AggItem& agg : node->aggs) {
          if (!needed.Contains(agg.output)) continue;
          aggs.push_back(agg);
          CollectColumnRefsDeep(agg.arg, &child_needed);
        }
        RelExprPtr out = CloneWithChildren(
            *node, {Prune(node->children[0], child_needed)});
        out->group_cols = std::move(group_cols);
        out->aggs = std::move(aggs);
        return out;
      }
      case RelKind::kSort: {
        for (const SortKey& key : node->sort_keys) {
          CollectColumnRefsDeep(key.expr, &needed);
        }
        return CloneWithChildren(*node,
                                 {Prune(node->children[0], needed)});
      }
      case RelKind::kUnionAll: {
        std::vector<ColumnId> out_cols;
        std::vector<size_t> kept_positions;
        for (size_t i = 0; i < node->out_cols.size(); ++i) {
          if (needed.Contains(node->out_cols[i])) {
            out_cols.push_back(node->out_cols[i]);
            kept_positions.push_back(i);
          }
        }
        std::vector<RelExprPtr> children;
        std::vector<std::vector<ColumnId>> maps;
        for (size_t c = 0; c < node->children.size(); ++c) {
          std::vector<ColumnId> map;
          ColumnSet child_needed;
          for (size_t i : kept_positions) {
            map.push_back(node->input_maps[c][i]);
            child_needed.Add(node->input_maps[c][i]);
          }
          children.push_back(Prune(node->children[c], child_needed));
          maps.push_back(std::move(map));
        }
        RelExprPtr out = CloneWithChildren(*node, std::move(children));
        out->out_cols = std::move(out_cols);
        out->input_maps = std::move(maps);
        return out;
      }
      case RelKind::kExceptAll: {
        // Bag difference compares whole rows: keep everything.
        std::vector<RelExprPtr> children;
        for (size_t c = 0; c < node->children.size(); ++c) {
          ColumnSet all(node->input_maps[c]);
          children.push_back(Prune(node->children[c], all));
        }
        return CloneWithChildren(*node, std::move(children));
      }
      case RelKind::kMax1row: {
        return CloneWithChildren(
            *node, {Prune(node->children[0],
                          node->children[0]->OutputSet())});
      }
      case RelKind::kSegmentApply: {
        // Segment arity is positional: no pruning through it.
        return CloneWithChildren(
            *node,
            {Prune(node->children[0], node->children[0]->OutputSet()),
             Prune(node->children[1], node->children[1]->OutputSet())});
      }
      case RelKind::kSegmentRef:
      case RelKind::kSingleRow:
        return node;
    }
    return node;
  }

 private:
  ColumnManager* columns_;
};

}  // namespace

RelExprPtr PushdownPredicates(RelExprPtr root, ColumnManager* columns) {
  Pushdown pushdown(columns);
  return pushdown.Rewrite(root);
}

RelExprPtr PruneColumns(const RelExprPtr& root, ColumnManager* columns) {
  Pruner pruner(columns);
  return pruner.Prune(root, root->OutputSet());
}

}  // namespace orq
