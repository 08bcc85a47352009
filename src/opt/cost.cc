#include "opt/cost.h"

#include <algorithm>
#include <cmath>

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "catalog/table.h"
#include "opt/join_choice.h"

namespace orq {

namespace {

constexpr double kHashBuildFactor = 1.6;   // per build row
constexpr double kAggFactor = 1.4;         // per input row
constexpr double kSeekCost = 2.0;          // per index probe
constexpr double kReopenCost = 0.5;        // per correlated re-open

double Clamp1(double v) { return v < 1.0 ? 1.0 : v; }

}  // namespace

double EquiJoinSelectivity(double left_distinct, double left_rows,
                           double right_distinct, double right_rows) {
  return 1.0 / Clamp1(std::max(std::min(left_distinct, left_rows),
                               std::min(right_distinct, right_rows)));
}

ProbeKeys MatchProbeKeys(const RelExpr& get, const ScalarExprPtr& predicate) {
  ProbeKeys keys;
  const ColumnSet get_cols = get.OutputSet();
  for (const ScalarExprPtr& c : SplitConjuncts(predicate)) {
    bool is_key = false;
    if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq) {
      for (int side = 0; side < 2 && !is_key; ++side) {
        const ScalarExprPtr& l = c->children[side];
        if (l->kind != ScalarKind::kColumnRef) continue;
        if (!get_cols.Contains(l->column)) continue;
        ColumnSet rrefs;
        CollectColumnRefs(c->children[1 - side], &rrefs);
        if (rrefs.Intersects(get_cols)) continue;
        for (size_t i = 0; i < get.get_cols.size(); ++i) {
          if (get.get_cols[i] == l->column) {
            keys.ordinals.push_back(get.get_ordinals[i]);
            is_key = true;
          }
        }
      }
    }
    if (!is_key) ++keys.residual;
  }
  return keys;
}

double JoinOperatorCost(const PlanEstimate& left, const PlanEstimate& right,
                        double out_rows, bool hash) {
  const double work = hash ? left.rows + right.rows * kHashBuildFactor
                           : left.rows * right.rows * 0.25;
  return left.cost + right.cost + work + out_rows * 0.2;
}

const PlanEstimate& CostModel::Estimate(const RelExprPtr& node) {
  auto it = cache_.find(node);
  if (it == cache_.end()) {
    it = cache_.emplace(node, Compute(node)).first;
  }
  return it->second;
}

double CostModel::EstimateDistinct(const RelExprPtr& node, ColumnId col) {
  double rows = Estimate(node).rows;
  switch (node->kind) {
    case RelKind::kGet: {
      for (size_t i = 0; i < node->get_cols.size(); ++i) {
        if (node->get_cols[i] == col) {
          const TableStats& stats = catalog_->GetStats(*node->table);
          return std::min(rows,
                          stats.columns[node->get_ordinals[i]].distinct_count);
        }
      }
      return rows;
    }
    case RelKind::kSelect:
    case RelKind::kSort:
    case RelKind::kMax1row:
      return std::min(rows, EstimateDistinct(node->children[0], col));
    case RelKind::kProject:
      if (node->passthrough.Contains(col)) {
        return std::min(rows, EstimateDistinct(node->children[0], col));
      }
      return rows;
    case RelKind::kJoin:
    case RelKind::kApply:
    case RelKind::kSegmentApply: {
      for (const RelExprPtr& child : node->children) {
        if (child->OutputSet().Contains(col)) {
          return std::min(rows, EstimateDistinct(child, col));
        }
      }
      return rows;
    }
    case RelKind::kGroupBy:
    case RelKind::kLocalGroupBy:
      if (node->group_cols.Contains(col)) {
        return std::min(rows, EstimateDistinct(node->children[0], col));
      }
      return rows;
    default:
      return rows;
  }
}

double CostModel::EstimateSelectivity(const RelExprPtr& input,
                                      const ScalarExprPtr& pred) {
  double selectivity = 1.0;
  for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
    double s = 0.5;
    switch (c->kind) {
      case ScalarKind::kCompare: {
        const ScalarExprPtr& l = c->children[0];
        const ScalarExprPtr& r = c->children[1];
        bool l_col = l->kind == ScalarKind::kColumnRef;
        bool r_col = r->kind == ScalarKind::kColumnRef;
        if (c->cmp == CompareOp::kEq) {
          if (l_col && r_col) {
            double dl = EstimateDistinct(input, l->column);
            double dr = EstimateDistinct(input, r->column);
            s = 1.0 / Clamp1(std::max(dl, dr));
          } else if (l_col || r_col) {
            ColumnId col = l_col ? l->column : r->column;
            s = 1.0 / Clamp1(EstimateDistinct(input, col));
          } else {
            s = 0.1;
          }
        } else if (c->cmp == CompareOp::kNe) {
          s = 0.9;
        } else {
          s = 0.33;
        }
        break;
      }
      case ScalarKind::kLike:
        s = 0.15;
        break;
      case ScalarKind::kInList:
        s = std::min(0.9, 0.05 * (c->children.size() - 1));
        break;
      case ScalarKind::kIsNull:
        s = 0.05;
        break;
      case ScalarKind::kIsNotNull:
        s = 0.95;
        break;
      case ScalarKind::kLiteral:
        s = IsTrueLiteral(c) ? 1.0 : 0.0;
        break;
      case ScalarKind::kOr:
        s = 0.6;
        break;
      default:
        s = 0.5;
        break;
    }
    selectivity *= s;
  }
  return std::max(selectivity, 1e-7);
}

PlanEstimate CostModel::Compute(const RelExprPtr& node) {
  switch (node->kind) {
    case RelKind::kGet: {
      double rows = catalog_->GetStats(*node->table).row_count;
      return {rows, rows};
    }
    case RelKind::kSingleRow:
      return {1.0, 0.1};
    case RelKind::kSegmentRef:
      // Estimated in segment context; standalone use gets a nominal size.
      return {100.0, 100.0};
    case RelKind::kSelect: {
      PlanEstimate child = Estimate(node->children[0]);
      double sel = EstimateSelectivity(node->children[0], node->predicate);
      return {Clamp1(child.rows * sel), child.cost + child.rows * 0.2};
    }
    case RelKind::kProject: {
      PlanEstimate child = Estimate(node->children[0]);
      return {child.rows,
              child.cost + child.rows * (0.05 * (1 + node->proj_items.size()))};
    }
    case RelKind::kJoin: {
      PlanEstimate left = Estimate(node->children[0]);
      PlanEstimate right = Estimate(node->children[1]);
      // Priced as the operator the physical builder runs it as; a column
      // pair keying a hash join estimates by distinct counts, every other
      // conjunct (NOT IN's disjunction included) by the flat residual.
      const JoinChoice choice = ChooseJoin(*node);
      double sel = 1.0;
      for (const auto& [l, r] : choice.keys) {
        if (choice.method == JoinMethod::kHash &&
            l->kind == ScalarKind::kColumnRef &&
            r->kind == ScalarKind::kColumnRef) {
          sel *= EquiJoinSelectivity(
              EstimateDistinct(node->children[0], l->column), left.rows,
              EstimateDistinct(node->children[1], r->column), right.rows);
        } else {
          sel *= kJoinResidualSelectivity;
        }
      }
      for (const ScalarExprPtr& c : choice.residual) {
        if (!IsTrueLiteral(c)) sel *= kJoinResidualSelectivity;
      }
      double out_rows = Clamp1(left.rows * right.rows * sel);
      double cost = JoinOperatorCost(
          left, right, out_rows, choice.method != JoinMethod::kNestedLoops);
      switch (node->join_kind) {
        case JoinKind::kLeftSemi:
          out_rows = Clamp1(std::min(left.rows,
                                     left.rows * sel * right.rows));
          break;
        case JoinKind::kLeftAnti:
          out_rows = Clamp1(left.rows -
                            std::min(left.rows, left.rows * sel * right.rows));
          break;
        case JoinKind::kLeftOuter:
          out_rows = std::max(out_rows, left.rows);
          break;
        default:
          break;
      }
      return {out_rows, cost};
    }
    case RelKind::kApply: {
      PlanEstimate left = Estimate(node->children[0]);
      ColumnSet params = FreeVariables(*node->children[1])
                             .Intersect(node->children[0]->OutputSet());
      PlanEstimate inner =
          EstimateCorrelatedInner(node->children[1], params);
      double per_row = inner.cost + kReopenCost;
      double rows = 1.0;
      switch (node->apply_kind) {
        case ApplyKind::kCross:
          rows = Clamp1(left.rows * inner.rows);
          break;
        case ApplyKind::kOuter:
          rows = Clamp1(left.rows * std::max(1.0, inner.rows));
          break;
        case ApplyKind::kSemi:
          rows = Clamp1(left.rows * 0.5);
          break;
        case ApplyKind::kAnti:
          rows = Clamp1(left.rows * 0.5);
          break;
      }
      return {rows, left.cost + left.rows * per_row};
    }
    case RelKind::kGroupBy:
    case RelKind::kLocalGroupBy: {
      PlanEstimate child = Estimate(node->children[0]);
      double groups;
      if (node->scalar_agg) {
        groups = 1.0;
      } else {
        groups = 1.0;
        for (ColumnId col : node->group_cols) {
          groups *= Clamp1(EstimateDistinct(node->children[0], col));
          if (groups > child.rows) break;
        }
        groups = std::min(groups, child.rows);
        groups = Clamp1(groups);
      }
      return {groups, child.cost + child.rows * kAggFactor};
    }
    case RelKind::kSegmentApply: {
      PlanEstimate input = Estimate(node->children[0]);
      double segments = 1.0;
      for (ColumnId col : node->segment_cols) {
        segments *= Clamp1(EstimateDistinct(node->children[0], col));
        if (segments > input.rows) break;
      }
      segments = Clamp1(std::min(segments, input.rows));
      // Inner runs once per segment over ~input.rows/segments rows. The
      // SegmentRef leaf is priced via its nominal estimate; scale the
      // inner's cost to the segment size instead.
      PlanEstimate inner = Estimate(node->children[1]);
      double segment_rows = input.rows / segments;
      double inner_scale = segment_rows / 100.0;  // nominal SegmentRef size
      double inner_cost = inner.cost * std::max(inner_scale, 0.05);
      double inner_rows = std::max(1.0, inner.rows * inner_scale);
      return {Clamp1(segments * inner_rows),
              input.cost + input.rows * kHashBuildFactor +
                  segments * (inner_cost + kReopenCost)};
    }
    case RelKind::kMax1row: {
      PlanEstimate child = Estimate(node->children[0]);
      return {std::min(child.rows, 1.0), child.cost};
    }
    case RelKind::kUnionAll: {
      PlanEstimate total{0.0, 0.0};
      for (const RelExprPtr& child : node->children) {
        PlanEstimate e = Estimate(child);
        total.rows += e.rows;
        total.cost += e.cost;
      }
      return total;
    }
    case RelKind::kExceptAll: {
      PlanEstimate left = Estimate(node->children[0]);
      PlanEstimate right = Estimate(node->children[1]);
      return {Clamp1(left.rows * 0.5),
              left.cost + right.cost + right.rows * kHashBuildFactor +
                  left.rows};
    }
    case RelKind::kSort: {
      PlanEstimate child = Estimate(node->children[0]);
      double rows = child.rows;
      if (node->limit >= 0) rows = std::min(rows, double(node->limit));
      return {Clamp1(rows),
              child.cost + child.rows * std::log2(child.rows + 2.0)};
    }
  }
  return {1.0, 1.0};
}

PlanEstimate CostModel::EstimateCorrelatedInner(const RelExprPtr& node,
                                                const ColumnSet& params) {
  // Select over Get whose equality conjuncts against parameters are covered
  // by an index: price as a probe returning the expected bucket size.
  if (node->kind == RelKind::kSelect &&
      node->children[0]->kind == RelKind::kGet) {
    const RelExprPtr& get = node->children[0];
    const ProbeKeys keys = MatchProbeKeys(*get, node->predicate);
    const std::vector<int>& key_ordinals = keys.ordinals;
    const double residual_sel =
        std::pow(kJoinResidualSelectivity, keys.residual);
    if (!key_ordinals.empty() &&
        get->table->FindIndex(key_ordinals) != nullptr) {
      const TableStats& stats = catalog_->GetStats(*get->table);
      double distinct = 1.0;
      for (int ordinal : key_ordinals) {
        distinct *= Clamp1(stats.columns[ordinal].distinct_count);
      }
      double bucket = Clamp1(stats.row_count / Clamp1(distinct));
      double rows = Clamp1(bucket * residual_sel);
      return {rows, kSeekCost + bucket * 0.3};
    }
  }
  // Generic: children of the same shape recurse; other operators price as
  // their uncorrelated estimate (the inner is re-executed fully per row).
  switch (node->kind) {
    case RelKind::kSelect: {
      PlanEstimate child =
          EstimateCorrelatedInner(node->children[0], params);
      double sel = EstimateSelectivity(node->children[0], node->predicate);
      return {Clamp1(child.rows * sel), child.cost + child.rows * 0.2};
    }
    case RelKind::kProject: {
      PlanEstimate child =
          EstimateCorrelatedInner(node->children[0], params);
      return {child.rows, child.cost + child.rows * 0.1};
    }
    case RelKind::kGroupBy:
      if (node->scalar_agg) {
        PlanEstimate child =
            EstimateCorrelatedInner(node->children[0], params);
        return {1.0, child.cost + child.rows * kAggFactor};
      }
      [[fallthrough]];
    default: {
      return Estimate(node);
    }
  }
}

}  // namespace orq
