#include "normalize/normalizer.h"

#include "algebra/expr_util.h"
#include "normalize/apply_removal.h"
#include "normalize/fold.h"
#include "normalize/oj_simplify.h"
#include "normalize/pushdown.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace orq {

namespace {

/// Records one whole-tree pass when tracing is on and the pass changed the
/// tree (pointer inequality is a cheap proxy; rewrites share unchanged
/// subtrees, so an untouched tree comes back as the same root).
/// `start_nanos` is the pass entry time; the event carries the pass's wall
/// time so compile time is attributable per pass (nested identity firings
/// recorded by apply_removal are inside this window and stay untimed).
void TracePhase(const NormalizerOptions& options, const char* phase,
                const RelExprPtr& before, const RelExprPtr& after,
                int64_t start_nanos) {
  if (options.trace == nullptr || before == after) return;
  TraceEvent event{TraceEvent::Stage::kNormalize, TraceEvent::Kind::kPhase,
                   phase, CountRelNodes(*before), CountRelNodes(*after),
                   -1.0, -1.0};
  event.wall_nanos = ObsNowNanos() - start_nanos;
  options.trace->Record(std::move(event));
}

/// Pass entry stamp; skipped (zero) when tracing is off so the untraced
/// compile path takes no clock readings.
int64_t PassStart(const NormalizerOptions& options) {
  return options.trace != nullptr ? ObsNowNanos() : 0;
}

}  // namespace

Result<RelExprPtr> Normalize(RelExprPtr root, ColumnManager* columns,
                             const NormalizerOptions& options) {
  // The phases interact: pushdown exposes identity-(2) shapes to Apply
  // removal; Apply removal produces outerjoins for simplification, which in
  // turn unlocks further pushdown. Three rounds reach fixpoint on all the
  // plan shapes this library generates; a round that returns the same root
  // is the fixpoint (each pass returns an untouched tree as itself).
  RelExprPtr current = std::move(root);
  RelExprPtr before;
  int64_t start = 0;
  for (int round = 0; round < 3; ++round) {
    const RelExprPtr round_start = current;
    if (options.pushdown_predicates) {
      before = current;
      start = PassStart(options);
      current = PushdownPredicates(current, columns);
      TracePhase(options, "pushdown", before, current, start);
    }
    if (options.remove_correlations) {
      before = current;
      start = PassStart(options);
      ORQ_ASSIGN_OR_RETURN(current,
                           RemoveApplies(current, columns, options));
      TracePhase(options, "apply_removal", before, current, start);
    }
    if (options.simplify_outerjoins) {
      before = current;
      start = PassStart(options);
      current = SimplifyOuterJoins(current);
      TracePhase(options, "oj_simplify", before, current, start);
    }
    if (current == round_start) break;
  }
  if (options.pushdown_predicates) {
    before = current;
    start = PassStart(options);
    current = PushdownPredicates(current, columns);
    // Constant folding + empty-subexpression detection (section 4), then
    // one more pushdown round to let the simplified tree settle.
    current = FoldAndDetectEmpty(current, columns);
    TracePhase(options, "fold", before, current, start);
    before = current;
    start = PassStart(options);
    current = PushdownPredicates(current, columns);
    current = FoldAndDetectEmpty(current, columns);
    current = PruneColumns(current, columns);
    TracePhase(options, "prune", before, current, start);
  }
  return current;
}

}  // namespace orq
