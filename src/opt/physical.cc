#include "opt/physical.h"

#include <optional>
#include <unordered_map>

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "catalog/table.h"
#include "opt/cost.h"
#include "opt/join_choice.h"

namespace orq {

namespace {

bool ContainsGet(const RelExpr& node) {
  if (node.kind == RelKind::kGet) return true;
  for (const RelExprPtr& child : node.children) {
    if (ContainsGet(*child)) return true;
  }
  return false;
}

bool ContainsSegmentRef(const RelExpr& node) {
  if (node.kind == RelKind::kSegmentRef) return true;
  for (const RelExprPtr& child : node.children) {
    if (ContainsSegmentRef(*child)) return true;
  }
  return false;
}

/// Aggregates whose per-worker partials cannot be folded together:
/// DISTINCT needs a global duplicate set, Max1Row a global row count.
bool HasUnmergeableAgg(const RelExpr& node) {
  for (const AggItem& agg : node.aggs) {
    if (agg.distinct || agg.func == AggFunc::kMax1Row) return true;
  }
  return false;
}

class PlanBuilder {
 public:
  PlanBuilder(const ColumnManager& columns,
              const PhysicalBuildOptions& options, CostModel* cost)
      : columns_(columns), options_(options), cost_(cost) {}

  /// Builds the operator for `node` and, when a cost model is attached,
  /// stamps it with the logical node's estimates (the EXPLAIN ANALYZE
  /// actual-vs-estimated hook). In parallel mode the first node whose
  /// whole subtree is region-eligible becomes the plan's (single)
  /// Exchange; descent continues serially everywhere else.
  Result<PhysicalOpPtr> Build(const RelExprPtr& node) {
    PhysicalOpPtr op;
    if (ShouldInsertExchange(node)) {
      ORQ_ASSIGN_OR_RETURN(op, BuildExchange(node));
    } else {
      ORQ_ASSIGN_OR_RETURN(op, BuildNode(node));
    }
    if (cost_ != nullptr) {
      const PlanEstimate& estimate = cost_->Estimate(node);
      op->set_estimates(estimate.rows, estimate.cost);
    }
    return op;
  }

 private:
  /// A subtree becomes a parallel region when (a) parallel mode is on and
  /// no exchange exists yet (one per plan in v1 — gangs never compete for
  /// pool threads), (b) we are not under a rebinding Apply or SegmentApply
  /// inner (those re-open per outer row; a gang per re-open is v2), (c) it
  /// actually scans something and is more than a bare scan (a lone Get has
  /// nothing to amortize the queue against), (d) it is closed — no free
  /// variables — and (e) every operator in it has a parallel form.
  bool ShouldInsertExchange(const RelExprPtr& node) const {
    return options_.num_threads > 0 && region_worker_ < 0 &&
           allow_exchange_ && !exchange_done_ &&
           node->kind != RelKind::kGet && ContainsGet(*node) &&
           FreeVariables(*node).empty() && EligibleRegion(node);
  }

  /// Whole-subtree recursion behind ShouldInsertExchange's clause (e):
  /// scans split into morsels, filters/projections replicate, hash joins
  /// build via partition+merge, aggregations merge partials — anything
  /// else (sorts, applies, set ops, segments, unmergeable aggs) keeps the
  /// region boundary below itself.
  bool EligibleRegion(const RelExprPtr& node) const {
    switch (node->kind) {
      case RelKind::kGet:
        return true;
      case RelKind::kSelect:
        // A constant-empty Select compiles to a zero-row op; let the
        // serial shortcut prune it instead of spinning up a gang.
        if (node->predicate->kind == ScalarKind::kLiteral &&
            IsFalseOrNullLiteral(node->predicate)) {
          return false;
        }
        return EligibleRegion(node->children[0]);
      case RelKind::kProject:
        return EligibleRegion(node->children[0]);
      case RelKind::kJoin:
        if (!options_.use_hash_join ||
            ChooseJoin(*node).method == JoinMethod::kNestedLoops) {
          return false;
        }
        return EligibleRegion(node->children[0]) &&
               EligibleRegion(node->children[1]);
      case RelKind::kGroupBy:
      case RelKind::kLocalGroupBy:
        if (HasUnmergeableAgg(*node)) return false;
        return EligibleRegion(node->children[0]);
      default:
        return false;
    }
  }

  /// Builds N instances of the region subtree — each shares the same
  /// morsel cursors / build barriers via shared_by_node_ — and seals them
  /// under one Exchange.
  Result<PhysicalOpPtr> BuildExchange(const RelExprPtr& node) {
    exchange_done_ = true;
    shared_by_node_.clear();
    region_shared_.clear();
    std::vector<PhysicalOpPtr> instances;
    for (int w = 0; w < options_.num_threads; ++w) {
      region_worker_ = w;
      Result<PhysicalOpPtr> instance = Build(node);
      region_worker_ = -1;
      if (!instance.ok()) return instance.status();
      instances.push_back(std::move(*instance));
    }
    shared_by_node_.clear();
    std::vector<ColumnId> layout = instances[0]->layout();
    return MakeExchangeOp(std::move(instances), std::move(region_shared_),
                          std::move(layout));
  }

  /// The shared state all N instances of one logical node rendezvous on;
  /// worker 0's build creates it, the others look it up.
  template <typename MakeFn>
  SharedRegionStatePtr SharedForNode(const RelExpr* node, MakeFn make) {
    auto it = shared_by_node_.find(node);
    if (it != shared_by_node_.end()) return it->second;
    SharedRegionStatePtr state = make();
    shared_by_node_.emplace(node, state);
    region_shared_.push_back(state);
    return state;
  }
  Result<PhysicalOpPtr> BuildNode(const RelExprPtr& node) {
    switch (node->kind) {
      case RelKind::kGet:
        if (region_worker_ >= 0) {
          SharedRegionStatePtr source = SharedForNode(
              node.get(), [] { return MakeMorselSource(); });
          return MakeMorselScan(node->table, node->get_ordinals,
                                node->get_cols, std::move(source));
        }
        return MakeTableScan(node->table, node->get_ordinals,
                             node->get_cols);
      case RelKind::kSelect:
        return BuildSelect(node);
      case RelKind::kProject: {
        ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr child, Build(node->children[0]));
        std::vector<ColumnId> pass;
        for (ColumnId id : node->children[0]->OutputColumns()) {
          if (node->passthrough.Contains(id)) pass.push_back(id);
        }
        return MakeComputeOp(std::move(child), node->proj_items,
                             std::move(pass));
      }
      case RelKind::kJoin:
        return BuildJoin(node);
      case RelKind::kApply:
        return BuildApply(node);
      case RelKind::kGroupBy:
      case RelKind::kLocalGroupBy: {
        ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr child, Build(node->children[0]));
        std::vector<ColumnId> group_cols;
        for (ColumnId id : node->children[0]->OutputColumns()) {
          if (node->group_cols.Contains(id)) group_cols.push_back(id);
        }
        SharedRegionStatePtr shared;
        if (region_worker_ >= 0) {
          shared = SharedForNode(node.get(), [this] {
            return MakeSharedAggState(options_.num_threads);
          });
        }
        return MakeHashAggregateOp(std::move(child), std::move(group_cols),
                                   node->aggs, node->scalar_agg,
                                   std::move(shared),
                                   region_worker_ >= 0 ? region_worker_ : 0);
      }
      case RelKind::kSegmentApply: {
        ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr input, Build(node->children[0]));
        const bool saved_allow = allow_exchange_;
        allow_exchange_ = false;  // inner re-opens once per segment
        Result<PhysicalOpPtr> inner_built = Build(node->children[1]);
        allow_exchange_ = saved_allow;
        ORQ_RETURN_IF_ERROR(inner_built.status());
        PhysicalOpPtr inner = std::move(*inner_built);
        std::vector<int> key_slots;
        const std::vector<ColumnId>& in_layout = input->layout();
        std::vector<ColumnId> layout;
        for (size_t i = 0; i < in_layout.size(); ++i) {
          if (node->segment_cols.Contains(in_layout[i])) {
            key_slots.push_back(static_cast<int>(i));
            layout.push_back(in_layout[i]);
          }
        }
        layout.insert(layout.end(), inner->layout().begin(),
                      inner->layout().end());
        return MakeSegmentApplyOp(std::move(input), std::move(inner),
                                  std::move(key_slots), std::move(layout));
      }
      case RelKind::kSegmentRef:
        return MakeSegmentScanOp(node->segment_out_cols);
      case RelKind::kMax1row: {
        ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr child, Build(node->children[0]));
        return MakeMax1rowOp(std::move(child));
      }
      case RelKind::kUnionAll: {
        std::vector<PhysicalOpPtr> children;
        for (size_t i = 0; i < node->children.size(); ++i) {
          ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                               BuildAligned(node->children[i],
                                            node->input_maps[i],
                                            node->out_cols));
          children.push_back(std::move(child));
        }
        return MakeUnionAllOp(std::move(children), node->out_cols);
      }
      case RelKind::kExceptAll: {
        ORQ_ASSIGN_OR_RETURN(
            PhysicalOpPtr left,
            BuildAligned(node->children[0], node->input_maps[0],
                         node->out_cols));
        ORQ_ASSIGN_OR_RETURN(
            PhysicalOpPtr right,
            BuildAligned(node->children[1], node->input_maps[1],
                         node->out_cols));
        return MakeExceptAllOp(std::move(left), std::move(right),
                               node->out_cols);
      }
      case RelKind::kSort: {
        ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr child, Build(node->children[0]));
        return MakeSortOp(std::move(child), node->sort_keys, node->limit);
      }
      case RelKind::kSingleRow:
        return MakeSingleRowOp();
    }
    return Status::Internal("unhandled logical operator");
  }

  /// Wraps a set-operation branch so its layout positionally matches the
  /// parent's output columns.
  Result<PhysicalOpPtr> BuildAligned(const RelExprPtr& child,
                                     const std::vector<ColumnId>& input_map,
                                     const std::vector<ColumnId>& out_cols) {
    ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr built, Build(child));
    std::vector<ProjectItem> items;
    for (size_t i = 0; i < out_cols.size(); ++i) {
      items.push_back(
          ProjectItem{out_cols[i], CRef(columns_, input_map[i])});
    }
    return MakeComputeOp(std::move(built), std::move(items), {});
  }

  /// An index serving a Select-over-Get: the Select's equality conjuncts
  /// that bind the index's key columns to expressions over no column of
  /// the Get, and the remaining conjuncts.
  struct IndexMatch {
    const TableIndex* index = nullptr;
    std::vector<ScalarExprPtr> keys;  // in index->ordinals() order
    ScalarExprPtr residual;           // nullptr when none
  };

  /// The one index-matching rule, shared by BuildSelect (IndexSeek) and
  /// BuildApply (IndexJoin): nullopt unless `select` is a Select over a
  /// Get whose key-equality columns exactly cover one of the table's
  /// indexes. Disabled inside parallel regions: a seek scans no morsels,
  /// so N instances would each emit the full match set.
  std::optional<IndexMatch> MatchIndex(const RelExprPtr& select) const {
    if (!options_.use_index_seek || region_worker_ >= 0 ||
        select->kind != RelKind::kSelect) {
      return std::nullopt;
    }
    const RelExprPtr& get = select->children[0];
    if (get->kind != RelKind::kGet) return std::nullopt;
    ColumnSet get_cols = get->OutputSet();
    std::vector<ScalarExprPtr> residual;
    std::vector<int> key_ordinals;
    std::vector<ScalarExprPtr> key_exprs;
    for (const ScalarExprPtr& c : SplitConjuncts(select->predicate)) {
      bool used = false;
      if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq) {
        for (int side = 0; side < 2 && !used; ++side) {
          const ScalarExprPtr& l = c->children[side];
          const ScalarExprPtr& r = c->children[1 - side];
          if (l->kind != ScalarKind::kColumnRef) continue;
          if (!get_cols.Contains(l->column)) continue;
          ColumnSet rrefs;
          CollectColumnRefs(r, &rrefs);
          if (rrefs.Intersects(get_cols)) continue;
          // Map the column id back to its table ordinal.
          for (size_t i = 0; i < get->get_cols.size(); ++i) {
            if (get->get_cols[i] == l->column) {
              key_ordinals.push_back(get->get_ordinals[i]);
              key_exprs.push_back(r);
              used = true;
              break;
            }
          }
        }
      }
      if (!used) residual.push_back(c);
    }
    if (key_ordinals.empty()) return std::nullopt;
    IndexMatch match;
    match.index = get->table->FindIndex(key_ordinals);
    if (match.index == nullptr) return std::nullopt;
    // Key expressions must line up with the index's ordinal order.
    const std::vector<int>& ordinals = match.index->ordinals();
    match.keys.resize(ordinals.size());
    for (size_t i = 0; i < ordinals.size(); ++i) {
      for (size_t k = 0; k < key_ordinals.size(); ++k) {
        if (key_ordinals[k] == ordinals[i]) match.keys[i] = key_exprs[k];
      }
    }
    if (!residual.empty()) match.residual = MakeAnd(std::move(residual));
    return match;
  }

  Result<PhysicalOpPtr> BuildSelect(const RelExprPtr& node) {
    const RelExprPtr& child = node->children[0];
    // A constant FALSE/NULL predicate is the canonical empty relation
    // (normalize/fold.h): compile it to a zero-row operator without
    // building the pruned subtree at all.
    if (node->predicate->kind == ScalarKind::kLiteral &&
        IsFalseOrNullLiteral(node->predicate)) {
      return MakeEmptyOp(child->OutputColumns());
    }
    // Select-over-Get with a key-covering equality -> index seek. The
    // equality's other side may be a literal or a correlated parameter.
    if (std::optional<IndexMatch> match = MatchIndex(node)) {
      return MakeIndexSeek(child->table, match->index, std::move(match->keys),
                           child->get_ordinals, child->get_cols,
                           std::move(match->residual));
    }
    ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr built, Build(child));
    return MakeFilterOp(std::move(built), node->predicate);
  }

  static PhysJoinKind ToPhysJoinKind(JoinKind kind) {
    switch (kind) {
      case JoinKind::kInner:
      case JoinKind::kCross:
        return PhysJoinKind::kInner;
      case JoinKind::kLeftOuter:
        return PhysJoinKind::kLeftOuter;
      case JoinKind::kLeftSemi:
        return PhysJoinKind::kLeftSemi;
      case JoinKind::kLeftAnti:
        return PhysJoinKind::kLeftAnti;
    }
    return PhysJoinKind::kInner;
  }

  /// Declared types of a build/inner side's layout, used to type the NULL
  /// padding of unmatched left-outer rows.
  std::vector<DataType> LayoutTypes(const std::vector<ColumnId>& layout) const {
    std::vector<DataType> types;
    types.reserve(layout.size());
    for (ColumnId id : layout) types.push_back(columns_.type(id));
    return types;
  }

  /// An inner/build side whose result cannot change across re-opens: no
  /// free variables (correlated parameters) and no segment reads. Such a
  /// side may be spooled once and replayed.
  static bool SideIsStable(const RelExpr& side) {
    return FreeVariables(side).empty() && !ContainsSegmentRef(side);
  }

  Result<PhysicalOpPtr> BuildJoin(const RelExprPtr& node) {
    ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr left, Build(node->children[0]));
    ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr right, Build(node->children[1]));
    const PhysJoinKind kind = ToPhysJoinKind(node->join_kind);
    std::vector<DataType> right_types = LayoutTypes(right->layout());
    JoinChoice choice = ChooseJoin(*node);
    if (!options_.use_hash_join ||
        choice.method == JoinMethod::kNestedLoops) {
      const bool cache_inner = SideIsStable(*node->children[1]);
      return MakeNLJoinOp(kind, std::move(left), std::move(right),
                          node->predicate, /*rebind_inner=*/false,
                          std::move(right_types), cache_inner);
    }
    // Inside a parallel region the build is shared by the gang; otherwise
    // a stable build side is cached across re-opens.
    SharedRegionStatePtr shared;
    if (region_worker_ >= 0) {
      shared = SharedForNode(node.get(), [this] {
        return MakeSharedJoinState(options_.num_threads);
      });
    }
    const bool cache_build =
        shared == nullptr && SideIsStable(*node->children[1]);
    const int worker = region_worker_ >= 0 ? region_worker_ : 0;
    if (choice.method == JoinMethod::kNullAwareAnti) {
      return MakeNullAwareAntiJoinOp(
          std::move(left), std::move(right), std::move(choice.keys[0]),
          std::move(right_types), cache_build, std::move(shared), worker);
    }
    ScalarExprPtr residual = choice.residual.empty()
                                 ? nullptr
                                 : MakeAnd(std::move(choice.residual));
    return MakeHashJoinOp(kind, std::move(left), std::move(right),
                          std::move(choice.keys), std::move(residual),
                          std::move(right_types), cache_build,
                          std::move(shared), worker);
  }

  /// An Apply whose inner is an index-served Select over Get, with keys
  /// over the Apply's outer columns only and a residual over the outer and
  /// the table's columns only, runs as an index-lookup join: a probe of
  /// the table's prebuilt index, with no per-row parameter binding or
  /// inner re-open. Every other inner (nested correlation, ScalarGroupBy,
  /// ...) keeps Apply over a re-opened inner.
  std::optional<IndexMatch> MatchIndexJoin(const RelExprPtr& node) const {
    std::optional<IndexMatch> match = MatchIndex(node->children[1]);
    if (!match) return std::nullopt;
    const ColumnSet outer = node->children[0]->OutputSet();
    for (const ScalarExprPtr& key : match->keys) {
      ColumnSet refs;
      CollectColumnRefsDeep(key, &refs);
      if (!refs.IsSubsetOf(outer)) return std::nullopt;
    }
    if (match->residual != nullptr) {
      ColumnSet refs;
      CollectColumnRefsDeep(match->residual, &refs);
      if (!refs.IsSubsetOf(
              outer.Union(node->children[1]->children[0]->OutputSet()))) {
        return std::nullopt;
      }
    }
    return match;
  }

  static PhysJoinKind ToPhysJoinKind(ApplyKind kind) {
    switch (kind) {
      case ApplyKind::kCross: return PhysJoinKind::kInner;
      case ApplyKind::kOuter: return PhysJoinKind::kLeftOuter;
      case ApplyKind::kSemi: return PhysJoinKind::kLeftSemi;
      case ApplyKind::kAnti: return PhysJoinKind::kLeftAnti;
    }
    return PhysJoinKind::kInner;
  }

  Result<PhysicalOpPtr> BuildApply(const RelExprPtr& node) {
    ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr left, Build(node->children[0]));
    const PhysJoinKind kind = ToPhysJoinKind(node->apply_kind);
    if (std::optional<IndexMatch> match = MatchIndexJoin(node)) {
      const RelExprPtr& get = node->children[1]->children[0];
      return MakeIndexJoinOp(kind, std::move(left), get->table, match->index,
                             std::move(match->keys), get->get_ordinals,
                             get->get_cols, std::move(match->residual),
                             LayoutTypes(get->get_cols));
    }
    bool correlated = FreeVariables(*node->children[1])
                          .Intersects(node->children[0]->OutputSet());
    const bool saved_allow = allow_exchange_;
    if (correlated) allow_exchange_ = false;  // inner re-opens per row
    Result<PhysicalOpPtr> right_built = Build(node->children[1]);
    allow_exchange_ = saved_allow;
    ORQ_RETURN_IF_ERROR(right_built.status());
    PhysicalOpPtr right = std::move(*right_built);
    std::vector<DataType> right_types = LayoutTypes(right->layout());
    const bool cache_inner =
        !correlated && SideIsStable(*node->children[1]);
    return MakeNLJoinOp(kind, std::move(left), std::move(right),
                        TrueLiteral(), correlated, std::move(right_types),
                        cache_inner);
  }

  const ColumnManager& columns_;
  const PhysicalBuildOptions& options_;
  CostModel* cost_;
  /// Parallel-region build state: the worker index the subtree currently
  /// being built belongs to (-1 = serial), whether an exchange may still
  /// be placed here (false under rebinding Apply / SegmentApply inners),
  /// and whether the plan already has its one exchange.
  int region_worker_ = -1;
  bool allow_exchange_ = true;
  bool exchange_done_ = false;
  /// Shared states of the region being built: by logical node for lookup
  /// across worker instances, in creation order for the ExchangeOp.
  std::unordered_map<const RelExpr*, SharedRegionStatePtr> shared_by_node_;
  std::vector<SharedRegionStatePtr> region_shared_;
};

}  // namespace

Result<PhysicalOpPtr> BuildPhysicalPlan(const RelExprPtr& logical,
                                        const ColumnManager& columns,
                                        const PhysicalBuildOptions& options,
                                        CostModel* cost) {
  PlanBuilder builder(columns, options, cost);
  return builder.Build(logical);
}

}  // namespace orq
