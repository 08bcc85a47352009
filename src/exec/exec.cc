#include "exec/exec.h"

#include "obs/metrics.h"
#include "obs/spans.h"

namespace orq {

Status PhysicalOp::OpenInstrumented(ExecContext* ctx) {
  const ExecInstruments& instruments = *ctx->instruments;
  instrumented_ = true;
  stats_ = instruments.stats != nullptr ? instruments.stats->StatsFor(this)
                                        : nullptr;
  metrics_ = instruments.metrics;
  spans_ = instruments.spans;
  open_start_nanos_ = ObsNowNanos();
  Status status = OpenImpl(ctx);
  if (stats_ != nullptr) {
    ++stats_->open_calls;
    stats_->wall_nanos += ObsNowNanos() - open_start_nanos_;
  }
  return status;
}

Result<bool> PhysicalOp::NextInstrumented(ExecContext* ctx, Row* row) {
  const int64_t start = ObsNowNanos();
  Result<bool> more = NextImpl(ctx, row);
  stats_->wall_nanos += ObsNowNanos() - start;
  ++stats_->next_calls;
  if (more.ok() && *more) {
    ++stats_->rows_out;
    ++ctx->rows_produced;
  }
  return more;
}

Status PhysicalOp::NextColumnsInstrumented(ExecContext* ctx,
                                           ColumnBatch* batch) {
  const int64_t start = ObsNowNanos();
  Status status = NextColumnsImpl(ctx, batch);
  if (stats_ != nullptr) {
    stats_->wall_nanos += ObsNowNanos() - start;
    ++stats_->next_calls;
  }
  if (status.ok()) {
    const int64_t rows = static_cast<int64_t>(batch->selected());
    ctx->rows_produced += rows;
    if (rows > 0) {
      // The terminal empty pull is excluded from fill accounting: every
      // stream ends with one, so counting it only dilutes the signal.
      const int64_t slots = static_cast<int64_t>(batch->capacity());
      if (stats_ != nullptr) {
        stats_->rows_out += rows;
        stats_->batch_slots += slots;
        ++stats_->column_batches;
      }
      if (metrics_ != nullptr && slots > 0) {
        metrics_->Add(MetricCounter::kColumnBatches, 1);
        // Physical fill (rows the batch carries, live or not) and
        // selection density (live rows) over the same capacity.
        metrics_->Observe(MetricHistogram::kBatchFillPercent,
                          100 * static_cast<int64_t>(batch->num_rows()) /
                              slots);
        metrics_->Observe(MetricHistogram::kSelVectorSelectivity,
                          100 * rows / slots);
      }
    }
  }
  return status;
}

Status PhysicalOp::FillColumnsFromRows(ExecContext* ctx, ColumnBatch* batch) {
  const size_t capacity = static_cast<size_t>(batch->capacity());
  size_t n = 0;
  while (n < capacity) {
    if (n == adapter_rows_.size()) adapter_rows_.emplace_back();
    ORQ_ASSIGN_OR_RETURN(bool more, NextImpl(ctx, &adapter_rows_[n]));
    if (!more) break;
    ++n;
  }
  return batch->SetRows(adapter_rows_.data(), static_cast<uint32_t>(n),
                        layout_.size());
}

void PhysicalOp::CloseInstrumented() {
  const int64_t start = ObsNowNanos();
  CloseImpl();
  const int64_t end = ObsNowNanos();
  if (stats_ != nullptr) {
    ++stats_->close_calls;
    stats_->wall_nanos += end - start;
  }
  if (spans_ != nullptr) spans_->AddOpSpan(this, open_start_nanos_, end);
}

Result<std::vector<Row>> ExecuteToVector(PhysicalOp* plan, ExecContext* ctx) {
  std::vector<Row> rows;
  ORQ_RETURN_IF_ERROR(plan->Open(ctx));
  Status status = DrainRows(plan, ctx, [&rows](Row& row) {
    rows.push_back(std::move(row));
    return Status::OK();
  });
  plan->Close();
  if (!status.ok()) return status;
  return rows;
}

namespace {

void PrintRec(const PhysicalOp& op, const ColumnManager* columns, int indent,
              std::string* out) {
  out->append(indent * 2, ' ');
  out->append(op.name());
  out->append(" [");
  const std::vector<ColumnId>& layout = op.layout();
  for (size_t i = 0; i < layout.size(); ++i) {
    if (i > 0) out->append(", ");
    if (columns != nullptr) {
      out->append(columns->name(layout[i]));
      out->push_back('#');
    }
    out->append(std::to_string(layout[i]));
  }
  out->append("]\n");
  for (const PhysicalOp* child : op.children()) {
    PrintRec(*child, columns, indent + 1, out);
  }
}

}  // namespace

std::string PrintPhysicalPlan(const PhysicalOp& plan,
                              const ColumnManager* columns) {
  std::string out;
  PrintRec(plan, columns, 0, &out);
  return out;
}

}  // namespace orq
