#include "opt/optimizer.h"

#include <map>

#include "algebra/expr_util.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "opt/join_order.h"
#include "opt/rules.h"

namespace orq {

namespace {

class GreedyOptimizer {
 public:
  GreedyOptimizer(Catalog* catalog, ColumnManager* columns,
                  const OptimizerOptions& options)
      : columns_(columns),
        options_(options),
        cost_(catalog),
        rules_(BuildRuleSet(options)) {}

  /// Join enumeration; shares the cost model (and its estimate cache)
  /// with the rule search that follows.
  RelExprPtr OrderJoins(const RelExprPtr& root) {
    return orq::OrderJoins(root, columns_, &cost_, options_.trace);
  }

  RelExprPtr Optimize(const RelExprPtr& node, int depth) {
    auto memo = memo_.find(node);
    if (memo != memo_.end()) return memo->second;

    // Children first.
    std::vector<RelExprPtr> children;
    bool changed = false;
    for (const RelExprPtr& child : node->children) {
      RelExprPtr optimized = Optimize(child, depth);
      changed |= optimized != child;
      children.push_back(std::move(optimized));
    }
    RelExprPtr current =
        changed ? CloneWithChildren(*node, std::move(children)) : node;

    if (depth < options_.max_depth) {
      for (int round = 0; round < 4; ++round) {
        double current_cost = cost_.Estimate(current).cost;
        RelExprPtr best = current;
        double best_cost = current_cost;
        const char* best_rule = nullptr;
        // Candidate-evaluation wall time of the rule that ends up winning
        // this round; clock reads only happen with a trace attached.
        int64_t best_eval_nanos = 0;
        for (const auto& rule : rules_) {
          const int64_t rule_start =
              options_.trace != nullptr ? ObsNowNanos() : 0;
          for (RelExprPtr& alt : rule->Apply(current, columns_, &cost_)) {
            // Give the alternative's subtrees their own shot (e.g. a
            // pushed-down GroupBy may enable a further local split).
            RelExprPtr refined = OptimizeChildren(alt, depth + 1);
            double c = cost_.Estimate(refined).cost;
            if (c < best_cost * 0.9999) {  // strict improvement only
              best = refined;
              best_cost = c;
              best_rule = rule->name();
            }
          }
          if (options_.trace != nullptr && best_rule == rule->name()) {
            best_eval_nanos = ObsNowNanos() - rule_start;
          }
        }
        if (best == current) break;
        if (options_.trace != nullptr) {
          TraceEvent event{TraceEvent::Stage::kOptimize,
                           TraceEvent::Kind::kRule, best_rule,
                           CountRelNodes(*current), CountRelNodes(*best),
                           current_cost, best_cost};
          event.wall_nanos = best_eval_nanos;
          options_.trace->Record(std::move(event));
        }
        current = best;
      }
    }
    memo_[node] = current;
    return current;
  }

 private:
  RelExprPtr OptimizeChildren(const RelExprPtr& node, int depth) {
    if (depth >= options_.max_depth) return node;
    std::vector<RelExprPtr> children;
    bool changed = false;
    for (const RelExprPtr& child : node->children) {
      RelExprPtr optimized = Optimize(child, depth);
      changed |= optimized != child;
      children.push_back(std::move(optimized));
    }
    return changed ? CloneWithChildren(*node, std::move(children)) : node;
  }

  ColumnManager* columns_;
  const OptimizerOptions& options_;
  CostModel cost_;
  std::vector<std::unique_ptr<Rule>> rules_;
  // Keyed by shared_ptr: keeps source nodes alive so recycled addresses
  // cannot alias memo entries.
  std::map<RelExprPtr, RelExprPtr> memo_;
};

}  // namespace

Result<RelExprPtr> OptimizeTree(RelExprPtr root, Catalog* catalog,
                                ColumnManager* columns,
                                const OptimizerOptions& options) {
  if (!options.enable) return root;
  GreedyOptimizer optimizer(catalog, columns, options);
  return optimizer.Optimize(optimizer.OrderJoins(root), 0);
}

}  // namespace orq
