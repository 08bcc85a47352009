#ifndef ORQ_EXEC_OPS_H_
#define ORQ_EXEC_OPS_H_

#include <utility>
#include <vector>

#include "algebra/rel_expr.h"
#include "catalog/table.h"
#include "exec/exec.h"
#include "exec/parallel.h"

namespace orq {

/// Physical join variants (cross joins are inner joins with TRUE).
enum class PhysJoinKind { kInner, kLeftOuter, kLeftSemi, kLeftAnti };


/// Full scan emitting `ordinals` of each row as columns `layout`.
PhysicalOpPtr MakeTableScan(const Table* table, std::vector<int> ordinals,
                            std::vector<ColumnId> layout);

/// Equality index lookup. Key expressions are evaluated against correlated
/// parameters (ExecContext::params) at Open time — this is the physical
/// shape of "correlated execution with index lookup" (paper section 4).
/// Rows matching the key have `ordinals` projected to `layout`; `residual`
/// (optional) filters them.
PhysicalOpPtr MakeIndexSeek(const Table* table, const TableIndex* index,
                            std::vector<ScalarExprPtr> key_exprs,
                            std::vector<int> ordinals,
                            std::vector<ColumnId> layout,
                            ScalarExprPtr residual);

PhysicalOpPtr MakeFilterOp(PhysicalOpPtr child, ScalarExprPtr predicate);

/// Projection: forwards `passthrough` columns (by id) and computes items.
PhysicalOpPtr MakeComputeOp(PhysicalOpPtr child,
                            std::vector<ProjectItem> items,
                            std::vector<ColumnId> passthrough);

/// Nested-loops join / Apply. When `rebind_inner` is set, the operator
/// publishes each outer row's columns as parameters and re-opens the inner
/// child per outer row (correlated execution). kLeftOuter pads unmatched
/// rows with NULLs typed by `right_types` (the right layout's declared
/// column types, one per right column; kInt64 when omitted). With
/// `cache_inner` (builder-proven uncorrelated, segment-free inner), the
/// inner spool survives Close and re-opens replay it instead of
/// re-executing the subtree.
PhysicalOpPtr MakeNLJoinOp(PhysJoinKind kind, PhysicalOpPtr left,
                           PhysicalOpPtr right, ScalarExprPtr predicate,
                           bool rebind_inner,
                           std::vector<DataType> right_types = {},
                           bool cache_inner = false);

/// Hash join on equi-key pairs (left expr, right expr) with an optional
/// residual predicate over the combined row. Builds on the right input.
/// `right_types` types the kLeftOuter NULL padding, as in MakeNLJoinOp.
/// `cache_build` retains the build table across Open cycles (uncorrelated,
/// segment-free build side). Inside a parallel region, `shared` (from
/// MakeSharedJoinState) + `worker` switch the build to per-worker partials
/// merged at a barrier into one table all instances probe.
PhysicalOpPtr MakeHashJoinOp(
    PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
    std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys,
    ScalarExprPtr residual, std::vector<DataType> right_types = {},
    bool cache_build = false, SharedRegionStatePtr shared = nullptr,
    int worker = 0);

/// NOT IN as a hash join: the anti join whose whole predicate is
/// `l = r OR (l = r) IS NULL`, with `key` = (l, r). Null-aware: a left row
/// passes only when no right row makes l = r true or unknown, so an empty
/// right input passes every row, a NULL r rejects every row, and a NULL l
/// is rejected whenever the right input is non-empty. Other arguments as
/// in MakeHashJoinOp.
PhysicalOpPtr MakeNullAwareAntiJoinOp(
    PhysicalOpPtr left, PhysicalOpPtr right,
    std::pair<ScalarExprPtr, ScalarExprPtr> key,
    std::vector<DataType> right_types = {}, bool cache_build = false,
    SharedRegionStatePtr shared = nullptr, int worker = 0);

/// Index-lookup join: the Apply-over-IndexSeek plan (paper section 4's
/// correlated execution with index lookup) run as a hash-join probe whose
/// build side is `index`, prebuilt over `table`. Each left row's
/// `probe_keys` (expressions over the left layout, in index-ordinal
/// order) find its bucket of table rows; `residual` (optional, over the
/// left layout followed by `layout`) filters the candidates. kInner and
/// kLeftOuter emit the left row followed by the table row's `ordinals` as
/// columns `layout`, NULL-padded by `right_types` for unmatched outer
/// rows; kLeftSemi/kLeftAnti emit left rows only.
PhysicalOpPtr MakeIndexJoinOp(PhysJoinKind kind, PhysicalOpPtr left,
                              const Table* table, const TableIndex* index,
                              std::vector<ScalarExprPtr> probe_keys,
                              std::vector<int> ordinals,
                              std::vector<ColumnId> layout,
                              ScalarExprPtr residual,
                              std::vector<DataType> right_types = {});

/// Hash aggregation; with `scalar` set, emits exactly one row (agg over the
/// empty input yields count=0 / others NULL, per section 1.1). Implements
/// the Max1Row aggregate's run-time error. LocalGroupBy reuses this
/// operator (section 3.3: the implementation need not differ). Inside a
/// parallel region, `shared` (from MakeSharedAggState) + `worker` merge
/// per-worker partial aggregates at end of input; worker 0 emits the
/// merged groups and the other instances emit nothing.
PhysicalOpPtr MakeHashAggregateOp(PhysicalOpPtr child,
                                  std::vector<ColumnId> group_cols,
                                  std::vector<AggItem> aggs, bool scalar,
                                  SharedRegionStatePtr shared = nullptr,
                                  int worker = 0);

PhysicalOpPtr MakeSortOp(PhysicalOpPtr child, std::vector<SortKey> keys,
                         int64_t limit);

/// Passes rows through; errors with kCardinalityViolation on a second row.
PhysicalOpPtr MakeMax1rowOp(PhysicalOpPtr child);

/// Children must already produce positionally aligned layouts.
PhysicalOpPtr MakeUnionAllOp(std::vector<PhysicalOpPtr> children,
                             std::vector<ColumnId> layout);
PhysicalOpPtr MakeExceptAllOp(PhysicalOpPtr left, PhysicalOpPtr right,
                              std::vector<ColumnId> layout);

/// One row, zero columns.
PhysicalOpPtr MakeSingleRowOp();

/// Zero rows with the given layout — the compiled form of a provably empty
/// subexpression (paper section 4's "detecting empty subexpressions"); the
/// pruned subtree is never even opened.
PhysicalOpPtr MakeEmptyOp(std::vector<ColumnId> layout);

/// Reads the current segment (ExecContext::segment_stack) positionally.
PhysicalOpPtr MakeSegmentScanOp(std::vector<ColumnId> layout);

/// Segmented execution (paper section 3.4): partitions the input by the
/// given key slots, then runs `inner` once per segment with the segment
/// exposed to SegmentScan leaves; emits segment-key ++ inner-row.
PhysicalOpPtr MakeSegmentApplyOp(PhysicalOpPtr input, PhysicalOpPtr inner,
                                 std::vector<int> key_slots,
                                 std::vector<ColumnId> layout);

}  // namespace orq

#endif  // ORQ_EXEC_OPS_H_
