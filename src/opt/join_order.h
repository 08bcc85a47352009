#ifndef ORQ_OPT_JOIN_ORDER_H_
#define ORQ_OPT_JOIN_ORDER_H_

#include "algebra/rel_expr.h"
#include "opt/cost.h"

namespace orq {

class TraceLog;

/// Join enumeration, the cost-based pass that runs before the greedy rule
/// search (see DESIGN.md §1 "Search strategy").
///
/// Each maximal inner-join cluster (inner joins and the filters between
/// them, stopping at outer/semi/anti joins, GroupBy, Apply and anything
/// else that is not an inner join) becomes a join graph: one vertex per
/// input, one edge per pair of inputs a conjunct or an equivalence class
/// of equated columns connects. The cluster is rebuilt in the cheapest
/// order `cost` finds: DPccp (Moerkotte & Neumann, VLDB 2006) over the
/// cross-product-free orders up to 10 inputs, greedy operator ordering
/// (GOO) above that and between disconnected parts. Each join's
/// orientation (which input the hash join builds) is costed too.
///
/// A semi or anti join whose predicate reads one member of the cluster
/// below it is also tried sunk onto that member; the cheaper of the two
/// trees is kept.
///
/// Join predicates are rebuilt from the equivalence classes, one equality
/// per class per join, so an implied equality the normalizer's closure
/// added is never applied twice. Only the chosen tree is materialized.
/// `trace`, when set, receives one phase event per ordered cluster, named
/// after the enumerator that ordered it.
RelExprPtr OrderJoins(const RelExprPtr& root, ColumnManager* columns,
                      CostModel* cost, TraceLog* trace = nullptr);

}  // namespace orq

#endif  // ORQ_OPT_JOIN_ORDER_H_
