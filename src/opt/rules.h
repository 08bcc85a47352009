#ifndef ORQ_OPT_RULES_H_
#define ORQ_OPT_RULES_H_

#include <memory>
#include <vector>

#include "algebra/rel_expr.h"
#include "opt/cost.h"
#include "opt/optimizer.h"

namespace orq {

/// A transformation rule: given a node (whose children are already
/// optimized), produce zero or more semantically equivalent alternatives.
/// The optimizer costs them against the original.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* name() const = 0;
  virtual std::vector<RelExprPtr> Apply(const RelExprPtr& node,
                                        ColumnManager* columns,
                                        CostModel* cost) const = 0;
};

/// Instantiates the rule set enabled by `options`. Rules defined across
/// rules.cc (correlated re-introduction),
/// groupby_rules.cc (sections 3.1-3.3) and segment_rules.cc (section 3.4).
std::vector<std::unique_ptr<Rule>> BuildRuleSet(
    const OptimizerOptions& options);

// Individual factories (exposed for targeted tests).
std::unique_ptr<Rule> MakeCorrelatedReintroductionRule();
std::unique_ptr<Rule> MakeGroupByPushBelowJoinRule();
std::unique_ptr<Rule> MakeGroupByPullAboveJoinRule();
std::unique_ptr<Rule> MakeGroupByPushBelowOuterJoinRule();
std::unique_ptr<Rule> MakeLocalAggregateSplitRule();
std::unique_ptr<Rule> MakeSemiJoinToJoinDistinctRule();
std::unique_ptr<Rule> MakeSemiJoinPushBelowGroupByRule();
std::unique_ptr<Rule> MakeSegmentApplyIntroRule();
std::unique_ptr<Rule> MakeSegmentApplyJoinIntroRule();
std::unique_ptr<Rule> MakeSegmentApplySemiJoinIntroRule();
std::unique_ptr<Rule> MakeJoinPushBelowSegmentApplyRule();

}  // namespace orq

#endif  // ORQ_OPT_RULES_H_
