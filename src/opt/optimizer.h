#ifndef ORQ_OPT_OPTIMIZER_H_
#define ORQ_OPT_OPTIMIZER_H_

#include "algebra/rel_expr.h"
#include "catalog/catalog.h"
#include "common/result.h"

namespace orq {

class TraceLog;

/// Cost-based optimization switches, one per orthogonal technique of the
/// paper's section 3 plus general exploration.
struct OptimizerOptions {
  /// Master switch; off leaves the normalized tree untouched.
  bool enable = true;
  /// GroupBy reordering around joins and filters (section 3.1).
  bool reorder_groupby = true;
  /// GroupBy pushdown below outer joins with computing project (3.2).
  bool reorder_groupby_outerjoin = true;
  /// Local/global aggregate split and LocalGroupBy pushdown (3.3).
  bool local_aggregates = true;
  /// SegmentApply introduction and join pushdown (3.4).
  bool segment_apply = true;
  /// Re-introduction of correlated execution (index-lookup-join, section 4).
  bool correlated_reintroduction = true;
  /// Cap on greedy improvement recursion.
  int max_depth = 8;
  /// Optional rule-firing trace (obs/trace.h), not owned. Records each
  /// accepted (cost-improving) transformation with before/after costs.
  TraceLog* trace = nullptr;
};

/// Cost-guided optimization: join enumeration over every inner-join
/// cluster (opt/join_order.h), then bottom-up greedy application of the
/// paper's rules on the reordered tree, keeping an alternative only when
/// the cost model ranks it strictly cheaper. (A full Volcano/Cascades memo
/// would explore the same rule set exhaustively; the greedy search finds
/// the paper's plans on all evaluated queries at a fraction of the
/// implementation and search cost — see DESIGN.md.)
Result<RelExprPtr> OptimizeTree(RelExprPtr root, Catalog* catalog,
                                ColumnManager* columns,
                                const OptimizerOptions& options);

}  // namespace orq

#endif  // ORQ_OPT_OPTIMIZER_H_
