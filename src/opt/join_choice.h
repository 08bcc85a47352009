#ifndef ORQ_OPT_JOIN_CHOICE_H_
#define ORQ_OPT_JOIN_CHOICE_H_

#include <optional>
#include <utility>
#include <vector>

#include "algebra/rel_expr.h"

namespace orq {

/// The physical operator a logical Join runs as.
enum class JoinMethod {
  /// NOT IN's anti join: HashJoin(null-aware-anti) on one key pair.
  kNullAwareAnti,
  /// HashJoin on the equi keys, the other conjuncts as its residual.
  kHash,
  /// NestedLoopsJoin over the whole predicate: no conjunct is an equi key.
  kNestedLoops,
};

/// One join's operator decision. `keys` are (left expr, right expr) pairs:
/// exactly one for kNullAwareAnti, at least one for kHash, none for
/// kNestedLoops. `residual` holds kHash's non-key conjuncts.
struct JoinChoice {
  JoinMethod method = JoinMethod::kNestedLoops;
  std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys;
  std::vector<ScalarExprPtr> residual;
};

/// The (left expr, right expr) key pair of conjunct `c` when it is an
/// equality whose sides each read only one input: one only `left_cols`,
/// the other only `right_cols`. This is ChooseJoin's hash-key rule; the
/// join enumerator asks it while pricing joins it has not built yet.
std::optional<std::pair<ScalarExprPtr, ScalarExprPtr>> EquiKey(
    const ScalarExprPtr& c, const ColumnSet& left_cols,
    const ColumnSet& right_cols);

/// Decides the operator of the logical Join `join`. The cost model prices
/// it, the physical builder builds it and parallel-region eligibility
/// admits it, so a join is never priced as one operator and run as
/// another.
///   * An anti join whose whole predicate is Apply introduction's NOT IN
///     disjunction `l = r OR (l = r) IS NULL` (l over the left input, r
///     over the right) is null-aware on (l, r).
///   * Otherwise every top-level equality EquiKey accepts is a hash key;
///     the rest is the residual. This holds for every join kind: the probe
///     counts a candidate as a match only when the residual is TRUE, which
///     is also what an anti join needs.
///   * A predicate with no such equality joins by nested loops.
JoinChoice ChooseJoin(const RelExpr& join);

}  // namespace orq

#endif  // ORQ_OPT_JOIN_CHOICE_H_
