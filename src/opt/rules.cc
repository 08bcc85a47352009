#include "opt/rules.h"

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "catalog/table.h"

namespace orq {

namespace {

/// Re-introduction of correlated execution (paper section 4: "the simplest
/// and most common being index-lookup-join"). Joins whose right side is a
/// base-table access become Apply with the join predicate as a
/// parameterized selection — profitable when the outer is small and an
/// index serves the selection. An inner join commutes, so its left side
/// may become the parameterized one too: join enumeration orients each
/// join for a hash build, and the index-lookup form may want the other
/// side. That commuted form is offered only where an index serves it and
/// the join keeps under half of that side's rows: a lookup that fetches
/// most of a table reads it at random where the hash join scans it (2x
/// slower on a whole-table fetch from TPC-H lineitem at SF 0.05-0.2).
class CorrelatedReintroductionRule : public Rule {
 public:
  const char* name() const override { return "CorrelatedReintroduction"; }

  std::vector<RelExprPtr> Apply(const RelExprPtr& node, ColumnManager*,
                                CostModel* cost) const override {
    if (node->kind != RelKind::kJoin || IsTrueLiteral(node->predicate)) {
      return {};
    }
    ApplyKind kind = ApplyKind::kCross;
    switch (node->join_kind) {
      case JoinKind::kInner: break;
      case JoinKind::kLeftOuter: kind = ApplyKind::kOuter; break;
      case JoinKind::kLeftSemi: kind = ApplyKind::kSemi; break;
      case JoinKind::kLeftAnti: kind = ApplyKind::kAnti; break;
      default: return {};
    }
    std::vector<RelExprPtr> out;
    if (SimpleInner(node->children[1])) {
      out.push_back(MakeApply(kind, node->children[0],
                              Parameterize(node->children[1],
                                           node->predicate)));
    }
    if (node->join_kind == JoinKind::kInner &&
        SimpleInner(node->children[0]) &&
        cost->Estimate(node).rows <
            0.5 * cost->Estimate(node->children[0]).rows) {
      RelExprPtr inner = Parameterize(node->children[0], node->predicate);
      if (IndexServes(inner)) {
        out.push_back(
            MakeApply(kind, node->children[1], std::move(inner)));
      }
    }
    return out;
  }

 private:
  /// The join predicate as a selection on `side`, merged into an existing
  /// selection so index detection (which looks for Select-over-Get) sees
  /// a single predicate.
  static RelExprPtr Parameterize(const RelExprPtr& side,
                                 const ScalarExprPtr& predicate) {
    return side->kind == RelKind::kSelect
               ? MakeSelect(side->children[0],
                            MakeAnd2(predicate, side->predicate))
               : MakeSelect(side, predicate);
  }

  /// True when an index of the table under `select` matches exactly the
  /// columns its predicate equates to outer expressions — the shape the
  /// cost model prices as an index probe.
  static bool IndexServes(const RelExprPtr& select) {
    const RelExprPtr& get = select->children[0];
    if (get->kind != RelKind::kGet) return false;
    const ProbeKeys keys = MatchProbeKeys(*get, select->predicate);
    return !keys.ordinals.empty() &&
           get->table->FindIndex(keys.ordinals) != nullptr;
  }

  /// Base table, possibly filtered — the shapes IndexSeek can serve.
  static bool SimpleInner(const RelExprPtr& node) {
    if (node->kind == RelKind::kGet) return true;
    if (node->kind == RelKind::kSelect) return SimpleInner(node->children[0]);
    return false;
  }
};

/// sigma_q(G_{A,F}(Join_p(R,S))) -> sigma_q(Apply-cross(R, G_F1(sigma_p S)))
/// — the full circle back to the paper's "correlated execution" strategy of
/// section 1.1, valid when q rejects the rows an inner join would have
/// dropped (NULL/0 aggregate results of unmatched outer rows).
class CorrelatedAggregateRule : public Rule {
 public:
  const char* name() const override { return "CorrelatedAggregate"; }

  std::vector<RelExprPtr> Apply(const RelExprPtr& node, ColumnManager*,
                                CostModel*) const override {
    if (node->kind != RelKind::kSelect) return {};
    const RelExprPtr& agg = node->children[0];
    if (agg->kind != RelKind::kGroupBy || agg->scalar_agg) return {};
    const RelExprPtr& join = agg->children[0];
    if (join->kind != RelKind::kJoin ||
        (join->join_kind != JoinKind::kInner &&
         join->join_kind != JoinKind::kLeftOuter)) {
      return {};
    }
    const RelExprPtr& outer = join->children[0];
    const RelExprPtr& inner = join->children[1];
    ColumnSet outer_cols = outer->OutputSet();
    ColumnSet inner_cols = inner->OutputSet();
    // Grouping must be the outer's columns with a key (per-outer-row agg).
    if (!agg->group_cols.IsSubsetOf(outer_cols)) return {};
    if (!HasKeyWithin(*outer, agg->group_cols)) return {};
    // Aggregate arguments must come from the inner side.
    ColumnSet null_cols;  // aggregate outputs that are NULL/0 when unmatched
    for (const AggItem& item : agg->aggs) {
      ColumnSet refs;
      CollectColumnRefsDeep(item.arg, &refs);
      if (!refs.IsSubsetOf(inner_cols)) return {};
      if (item.func == AggFunc::kCountStar) {
        // Over an outer join, count(*) sees the padded row (1), while the
        // correlated form sees the empty input (0): not equivalent.
        if (join->join_kind == JoinKind::kLeftOuter) return {};
      } else if (item.func != AggFunc::kCount) {
        null_cols.Add(item.output);
      }
    }
    if (join->join_kind == JoinKind::kInner) {
      // The filter must reject what correlated execution would add back:
      // unmatched outer rows, whose NULL-on-empty aggregates are NULL.
      if (!PredicateNotTrueOnNull(node->predicate, null_cols)) return {};
    }
    RelExprPtr correlated = MakeApply(
        ApplyKind::kCross, outer,
        MakeScalarGroupBy(MakeSelect(inner, join->predicate), agg->aggs));
    return {MakeSelect(std::move(correlated), node->predicate)};
  }
};

}  // namespace

std::unique_ptr<Rule> MakeCorrelatedReintroductionRule() {
  return std::make_unique<CorrelatedReintroductionRule>();
}

std::vector<std::unique_ptr<Rule>> BuildRuleSet(
    const OptimizerOptions& options) {
  std::vector<std::unique_ptr<Rule>> rules;
  if (options.reorder_groupby) {
    rules.push_back(MakeGroupByPushBelowJoinRule());
    rules.push_back(MakeGroupByPullAboveJoinRule());
    rules.push_back(MakeSemiJoinToJoinDistinctRule());
    rules.push_back(MakeSemiJoinPushBelowGroupByRule());
  }
  if (options.reorder_groupby_outerjoin) {
    rules.push_back(MakeGroupByPushBelowOuterJoinRule());
  }
  if (options.local_aggregates) {
    rules.push_back(MakeLocalAggregateSplitRule());
  }
  if (options.segment_apply) {
    rules.push_back(MakeSegmentApplyIntroRule());
    rules.push_back(MakeSegmentApplyJoinIntroRule());
    rules.push_back(MakeSegmentApplySemiJoinIntroRule());
    rules.push_back(MakeJoinPushBelowSegmentApplyRule());
  }
  if (options.correlated_reintroduction) {
    rules.push_back(MakeCorrelatedReintroductionRule());
    rules.push_back(std::make_unique<CorrelatedAggregateRule>());
  }
  return rules;
}

}  // namespace orq
