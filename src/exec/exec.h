#ifndef ORQ_EXEC_EXEC_H_
#define ORQ_EXEC_EXEC_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/column.h"
#include "catalog/table.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/cancel.h"
#include "exec/column_batch.h"
#include "obs/stats.h"

namespace orq {

/// Rows moved between operators per NextColumns call. Large enough to
/// amortize the virtual call and the per-batch bookkeeping, small enough
/// that a batch's columns stay cache-resident.
inline constexpr int kDefaultBatchRows = 1024;

/// Upper bound on batch_size. Selection vectors and join gather lists
/// index rows with uint32, and per-batch scratch is O(batch_size); 64k
/// rows is far past the cache-residency sweet spot already.
inline constexpr int kMaxBatchRows = 64 * 1024;

/// The single batch-size validity check, shared by SET batch_size and the
/// engine's option intake so neither silently clamps.
inline Status ValidateBatchSize(int batch_size) {
  if (batch_size < 1 || batch_size > kMaxBatchRows) {
    return Status::InvalidArgument(
        "batch_size must be in [1, " + std::to_string(kMaxBatchRows) +
        "], got " + std::to_string(batch_size));
  }
  return Status::OK();
}

/// Execution-mode knobs, threaded from EngineOptions into ExecContext.
struct ExecOptions {
  /// The execution mode (`SET exec columnar|row`). True runs the columnar
  /// engine: operators exchange ColumnBatches (exec/column_batch.h) through
  /// NextColumns and run type-specialized kernels. False runs the classic
  /// row-at-a-time Volcano engine through Next — the simple reference the
  /// difftest oracles compare the columnar engine against.
  bool batched = true;
  int batch_size = kDefaultBatchRows;
  /// Morsel-driven parallel execution. 0 keeps the classic single-threaded
  /// engine (no thread pool, plans unchanged); N >= 1 builds N instances of
  /// each eligible subtree under an exchange operator and runs them on an
  /// N-thread work-stealing pool — num_threads == 1 exists to measure the
  /// parallel mode's fixed overhead.
  int num_threads = 0;
  /// Rows per morsel claim for parallel table scans (see exec/parallel.h).
  int morsel_rows = 4096;
};

class MetricsRegistry;
class SpanRecorder;
class TaskPool;

/// Optional instrumentation sinks for one execution, bundled so the
/// operator shells test a single pointer: per-operator stats (EXPLAIN
/// ANALYZE), the engine metrics registry, and the span recorder. Any
/// member may be null; a null bundle is the plain Execute path.
struct ExecInstruments {
  StatsCollector* stats = nullptr;
  MetricsRegistry* metrics = nullptr;
  SpanRecorder* spans = nullptr;
};

/// Run-time context shared by an operator tree. Correlated execution (Apply,
/// index lookup) communicates outer-row values through `params`; segmented
/// execution (SegmentApply) communicates the current segment through
/// `segment_stack`.
struct ExecContext {
  /// Current values of correlated parameters, keyed by column id.
  std::unordered_map<ColumnId, Value> params;
  /// Innermost current segment for SegmentScan leaves (rows share the
  /// segmenting operator's input layout).
  std::vector<const std::vector<Row>*> segment_stack;
  /// Number of rows produced by all operators (a cheap work metric used by
  /// tests and benchmarks to compare strategies). Maintained by the
  /// PhysicalOp::Next / NextColumns shells — the single accounting sites —
  /// whether or not instrumentation is attached.
  int64_t rows_produced = 0;
  /// Optional instrumentation (stats / metrics / spans). Null keeps the
  /// Volcano hot path at one extra branch per call.
  const ExecInstruments* instruments = nullptr;
  /// Execution mode and batch sizing (ExecOptions). Decides how the
  /// materializing drains (DrainRows) pull their inputs; the pull protocol
  /// everywhere else follows from the root's.
  bool batched = true;
  int batch_size = kDefaultBatchRows;
  /// Worker pool for exchange operators, or nullptr on single-threaded
  /// executions. Owned by the engine; a parallel plan executed without a
  /// pool fails at Open rather than silently serializing.
  TaskPool* pool = nullptr;
  /// Rows per parallel-scan morsel claim (ExecOptions::morsel_rows).
  int morsel_rows = 4096;
  /// Cooperative cancellation/deadline token, or nullptr when the caller
  /// set no bound. Polled by the operator shells (every column-batch pull,
  /// every Open, and a throttled fraction of row pulls), so a firing token
  /// surfaces as Cancelled/DeadlineExceeded within one batch of work.
  const CancelToken* cancel = nullptr;
  /// Row-mode poll throttle: the per-row Next shell consults the token
  /// only every 64th call, keeping the clock read off the per-row path.
  uint32_t cancel_tick = 0;
  /// Optional live-progress feed: when set, the shells publish
  /// rows_produced here (relaxed store) at every batch pull and every
  /// throttled row-mode poll, so `\queries` can show rows produced so far
  /// without touching the executor. Parallel workers run private contexts
  /// that leave this null, so the published figure is a lower bound under
  /// parallel execution (the consumer side still publishes).
  std::atomic<int64_t>* progress_rows = nullptr;

  /// Token poll shared by the shells; OK when no token is attached.
  Status CheckCancel() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }
};

/// Volcano-style iterator with two pull protocols: Next (one row) and
/// NextColumns (one ColumnBatch). Operators are single-use: Open, drain via
/// Next or NextColumns (one interface per Open, never interleaved), Close.
/// Re-Open after Close restarts the operator (correlated inners are
/// re-opened per outer row with fresh parameters).
///
/// Open/Next/NextColumns/Close are non-virtual shells around the OpenImpl/
/// NextImpl/NextColumnsImpl/CloseImpl hooks so the base class can account
/// rows and, when the context carries a StatsCollector, per-operator call
/// counts and wall time. NextImpl is every operator's row reference;
/// NextColumnsImpl defaults to an adapter that transposes NextImpl's rows,
/// and every operator on a hot path overrides it with column kernels.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  /// Output layout: row slot i holds the value of column layout()[i].
  const std::vector<ColumnId>& layout() const { return layout_; }

  Status Open(ExecContext* ctx) {
    // Correlated Apply re-opens its inner once per outer row, and an Open
    // may drain a whole child (hash build, sort, spool) — poll here so a
    // fired token stops the re-open storm at its source.
    ORQ_RETURN_IF_ERROR(ctx->CheckCancel());
    if (ctx->instruments == nullptr) {
      instrumented_ = false;
      stats_ = nullptr;
      metrics_ = nullptr;
      spans_ = nullptr;
      return OpenImpl(ctx);
    }
    return OpenInstrumented(ctx);
  }

  /// Fills `row` and returns true, or returns false at end of stream.
  Result<bool> Next(ExecContext* ctx, Row* row) {
    if ((ctx->cancel != nullptr || ctx->progress_rows != nullptr) &&
        (++ctx->cancel_tick & 63u) == 0u) {
      if (ctx->progress_rows != nullptr) {
        ctx->progress_rows->store(ctx->rows_produced,
                                  std::memory_order_relaxed);
      }
      Status cancelled = ctx->CheckCancel();
      if (!cancelled.ok()) return cancelled;
    }
    if (stats_ == nullptr) {
      Result<bool> more = NextImpl(ctx, row);
      if (more.ok() && *more) ++ctx->rows_produced;
      return more;
    }
    return NextInstrumented(ctx, row);
  }

  /// Columnar pull: clears `batch` and refills it with up to capacity
  /// physical rows plus a selection vector over the live ones. An empty
  /// batch (selected() == 0) signals end of stream — implementations
  /// loop internally past all-filtered input rather than returning an
  /// empty non-terminal batch. With a StatsCollector attached, next_calls
  /// counts batch pulls while rows_out counts rows, so the two diverge by
  /// roughly the batch size on this path.
  Status NextColumns(ExecContext* ctx, ColumnBatch* batch) {
    batch->Clear();
    if (ctx->progress_rows != nullptr) {
      ctx->progress_rows->store(ctx->rows_produced, std::memory_order_relaxed);
    }
    ORQ_RETURN_IF_ERROR(ctx->CheckCancel());
    if (!instrumented_) {
      Status status = NextColumnsImpl(ctx, batch);
      if (status.ok()) ctx->rows_produced += batch->selected();
      return status;
    }
    return NextColumnsInstrumented(ctx, batch);
  }

  void Close() {
    if (!instrumented_) {
      CloseImpl();
      return;
    }
    CloseInstrumented();
  }

  virtual std::string name() const = 0;

  const std::vector<PhysicalOp*>& children() const {
    if (child_view_.size() != children_.size()) {
      child_view_.clear();
      child_view_.reserve(children_.size());
      for (const auto& child : children_) child_view_.push_back(child.get());
    }
    return child_view_;
  }

  /// Cost-model estimates for the logical node this operator implements;
  /// negative when the plan was built without a cost model (plain Execute)
  /// or the operator is an auxiliary op with no logical counterpart.
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  void set_estimates(double rows, double cost) {
    est_rows_ = rows;
    est_cost_ = cost;
  }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<bool> NextImpl(ExecContext* ctx, Row* row) = 0;
  /// Columnar pull hook. Overrides must honor the shell's contract: fill
  /// into `batch` (already cleared) and return a batch with no selected
  /// rows only at end of stream. The default is the FillColumnsFromRows
  /// transpose adapter over NextImpl.
  virtual Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* batch) {
    return FillColumnsFromRows(ctx, batch);
  }
  virtual void CloseImpl() = 0;

  /// Stateful operators report the size of their materialized state (hash
  /// table, sort buffer, spool, segment map) after building it. No-op when
  /// collection is disabled.
  void RecordPeak(int64_t cardinality) {
    if (stats_ != nullptr && cardinality > stats_->peak_cardinality) {
      stats_->peak_cardinality = cardinality;
    }
  }

  /// Engine metrics sink cached at Open, or nullptr when metrics are off.
  /// Operators guard each recording site on this (the RecordPeak pattern):
  /// `if (MetricsRegistry* m = metrics()) m->Add(...)`.
  MetricsRegistry* metrics() const { return metrics_; }

  /// Row -> column adapter: loops this operator's NextImpl (not the Next
  /// shell, so rows are accounted once, by the NextColumns shell) into
  /// scratch rows and transposes them into typed columns
  /// (ColumnBatch::SetRows).
  Status FillColumnsFromRows(ExecContext* ctx, ColumnBatch* batch);

  std::vector<ColumnId> layout_;
  std::vector<std::unique_ptr<PhysicalOp>> children_;

 private:
  /// Out-of-line instrumented halves of the shells, so the header-inlined
  /// fast paths stay one branch each.
  Status OpenInstrumented(ExecContext* ctx);
  Result<bool> NextInstrumented(ExecContext* ctx, Row* row);
  Status NextColumnsInstrumented(ExecContext* ctx, ColumnBatch* batch);
  void CloseInstrumented();

  /// FillColumnsFromRows scratch, grown on demand (most operators never
  /// adapt) and reused across pulls.
  std::vector<Row> adapter_rows_;

  bool instrumented_ = false;
  OpStats* stats_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  /// Open-entry timestamp of the current Open→Close lifetime (span start).
  int64_t open_start_nanos_ = 0;
  double est_rows_ = -1.0;
  double est_cost_ = -1.0;
  mutable std::vector<PhysicalOp*> child_view_;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// Pulls the open operator `op` to end of stream in the context's mode —
/// NextColumns batches decoded one selected row at a time when
/// ctx->batched, Next otherwise — and hands each row to `fn`, which
/// returns a Status and may move from the row. The one drain loop shared
/// by ExecuteToVector and every materializing operator (hash build, sort
/// input, spool, ExceptAll, SegmentApply partition), so each drains in the
/// same protocol and rows_produced agrees across modes.
template <typename Fn>
Status DrainRows(PhysicalOp* op, ExecContext* ctx, Fn&& fn) {
  if (!ctx->batched) {
    // Pull batch_size rows, then consume them: running the producer's and
    // the consumer's loops back to back instead of alternating per row
    // keeps each hot in cache (alternating cost 8-20% on bench_columnar's
    // row entries).
    std::vector<Row> rows(static_cast<size_t>(ctx->batch_size));
    while (true) {
      size_t n = 0;
      while (n < rows.size()) {
        ORQ_ASSIGN_OR_RETURN(bool more, op->Next(ctx, &rows[n]));
        if (!more) break;
        ++n;
      }
      for (size_t i = 0; i < n; ++i) ORQ_RETURN_IF_ERROR(fn(rows[i]));
      if (n < rows.size()) return Status::OK();
    }
  }
  Row row;
  ColumnBatch batch(ctx->batch_size);
  while (true) {
    ORQ_RETURN_IF_ERROR(op->NextColumns(ctx, &batch));
    const uint32_t live = batch.selected();
    if (live == 0) return Status::OK();
    for (uint32_t j = 0; j < live; ++j) {
      batch.DecodeRow(batch.RowAt(j), &row);
      ORQ_RETURN_IF_ERROR(fn(row));
    }
  }
}

/// DrainRows for the materializing operators that consume whole columns
/// (hash-join build, ExceptAll): in columnar mode `on_batch(ColumnBatch&)`
/// gets each NextColumns batch undecoded, and may narrow its selection;
/// in row mode `on_row(Row&)` gets each row exactly as DrainRows hands it.
template <typename RowFn, typename BatchFn>
Status DrainBatches(PhysicalOp* op, ExecContext* ctx, RowFn&& on_row,
                    BatchFn&& on_batch) {
  if (!ctx->batched) return DrainRows(op, ctx, on_row);
  ColumnBatch batch(ctx->batch_size);
  while (true) {
    ORQ_RETURN_IF_ERROR(op->NextColumns(ctx, &batch));
    if (batch.selected() == 0) return Status::OK();
    ORQ_RETURN_IF_ERROR(on_batch(batch));
  }
}

/// Runs a plan to completion, collecting all rows.
Result<std::vector<Row>> ExecuteToVector(PhysicalOp* plan, ExecContext* ctx);

/// Indented physical-plan rendering for EXPLAIN.
std::string PrintPhysicalPlan(const PhysicalOp& plan,
                              const ColumnManager* columns);

}  // namespace orq

#endif  // ORQ_EXEC_EXEC_H_
