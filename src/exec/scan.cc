#include <algorithm>
#include <atomic>
#include <span>

#include "exec/evaluator.h"
#include "exec/key_columns.h"
#include "exec/ops.h"
#include "exec/parallel.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// State and helpers shared by the serial and the morsel table scans: the
/// row copy of the Next path and the zero-copy column views of the
/// NextColumns path, both reading at pos_.
class TableScanBase : public PhysicalOp {
 public:
  TableScanBase(const Table* table, std::vector<int> ordinals,
                std::vector<ColumnId> layout)
      : table_(table), ordinals_(std::move(ordinals)) {
    layout_ = std::move(layout);
  }

 protected:
  void Restart() { pos_ = 0; }

  /// Decodes table row pos_ (its `ordinals_` columns) into `row`; advances.
  void CopyRow(Row* row) {
    row->resize(ordinals_.size());
    for (size_t i = 0; i < ordinals_.size(); ++i) {
      (*row)[i] = table_->CellAt(pos_, ordinals_[i]);
    }
    ++pos_;
  }

  /// Points `batch`'s columns at table rows [pos_, pos_ + n) of the
  /// table's column chunks, one view per ordinal, and advances. No per-row
  /// work at all — the batch is pointers plus a row count.
  void ViewRows(uint32_t n, ColumnBatch* batch) {
    const std::vector<TypedColumn>& chunks = table_->ColumnarChunks();
    batch->ResizeCols(ordinals_.size());
    for (size_t i = 0; i < ordinals_.size(); ++i) {
      ViewTypedColumn(chunks[ordinals_[i]], static_cast<uint32_t>(pos_), n,
                      &batch->col(i));
    }
    batch->set_num_rows(n);
    pos_ += n;
  }

  const Table* table_;
  std::vector<int> ordinals_;
  size_t pos_ = 0;
};

/// Atomic claim cursor shared by the N MorselScan instances of one table
/// scan. fetch_add partitions the row space into disjoint ranges with no
/// locks; the scan that claims past the end simply finishes.
class MorselSource final : public SharedRegionState {
 public:
  void Reset() override { next_.store(0, std::memory_order_relaxed); }

  /// Claims the next `morsel_rows` range; false when `total` is exhausted.
  bool Claim(size_t total, size_t morsel_rows, size_t* begin, size_t* end) {
    const size_t start =
        static_cast<size_t>(next_.fetch_add(static_cast<int64_t>(morsel_rows),
                                            std::memory_order_relaxed));
    if (start >= total) return false;
    *begin = start;
    *end = start + morsel_rows < total ? start + morsel_rows : total;
    return true;
  }

 private:
  std::atomic<int64_t> next_{0};
};

/// One worker's instance of a parallel table scan: claims morsels from the
/// shared source and emits their rows. The union of all instances is
/// exactly one full scan.
class MorselScanOp : public TableScanBase {
 public:
  MorselScanOp(const Table* table, std::vector<int> ordinals,
               std::vector<ColumnId> layout, SharedRegionStatePtr source)
      : TableScanBase(table, std::move(ordinals), std::move(layout)),
        source_(std::static_pointer_cast<MorselSource>(source)) {}

  Status OpenImpl(ExecContext* ctx) override {
    Restart();
    end_ = 0;
    morsel_rows_ = ctx->morsel_rows > 0
                       ? static_cast<size_t>(ctx->morsel_rows)
                       : static_cast<size_t>(kDefaultMorselRows);
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (pos_ >= end_ && !ClaimMorsel()) return false;
    CopyRow(row);
    return true;
  }

  /// Views windowed inside the claimed morsel [pos_, end_): a batch never
  /// spans two morsels, so the last batch of a morsel may be short.
  Status NextColumnsImpl(ExecContext*, ColumnBatch* batch) override {
    if (pos_ >= end_ && !ClaimMorsel()) return Status::OK();
    ViewRows(static_cast<uint32_t>(std::min(
                 end_ - pos_, static_cast<size_t>(batch->capacity()))),
             batch);
    return Status::OK();
  }

  void CloseImpl() override {}
  std::string name() const override {
    return "MorselScan(" + table_->name() + ")";
  }

 private:
  bool ClaimMorsel() {
    if (!source_->Claim(table_->num_rows(), morsel_rows_, &pos_, &end_)) {
      return false;
    }
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kMorselsClaimed, 1);
    }
    return true;
  }

  std::shared_ptr<MorselSource> source_;
  size_t end_ = 0;
  size_t morsel_rows_ = kDefaultMorselRows;
};

class TableScanOp : public TableScanBase {
 public:
  using TableScanBase::TableScanBase;

  Status OpenImpl(ExecContext*) override {
    Restart();
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (pos_ >= table_->num_rows()) return false;
    CopyRow(row);
    return true;
  }

  Status NextColumnsImpl(ExecContext*, ColumnBatch* batch) override {
    const size_t end = table_->num_rows();
    if (pos_ >= end) return Status::OK();
    ViewRows(static_cast<uint32_t>(std::min(
                 end - pos_, static_cast<size_t>(batch->capacity()))),
             batch);
    return Status::OK();
  }

  void CloseImpl() override {}
  std::string name() const override { return "TableScan(" + table_->name() + ")"; }
};

class IndexSeekOp : public PhysicalOp {
 public:
  IndexSeekOp(const Table* table, const TableIndex* index,
              std::vector<ScalarExprPtr> key_exprs, std::vector<int> ordinals,
              std::vector<ColumnId> layout, ScalarExprPtr residual)
      : table_(table), index_(index), ordinals_(std::move(ordinals)) {
    layout_ = std::move(layout);
    for (ScalarExprPtr& e : key_exprs) {
      key_evals_.emplace_back(std::move(e), std::vector<ColumnId>{});
    }
    if (residual != nullptr) {
      residual_ = Evaluator(std::move(residual), layout_);
      has_residual_ = true;
    }
  }

  Status OpenImpl(ExecContext* ctx) override {
    matches_ = {};
    pos_ = 0;
    Row key(key_evals_.size());
    for (size_t i = 0; i < key_evals_.size(); ++i) {
      Result<Value> v = key_evals_[i].Eval({}, ctx);
      if (!v.ok()) return v.status();
      if (v->is_null()) return Status::OK();  // NULL never matches
      key[i] = std::move(*v);
    }
    matches_ = index_->Lookup(key);
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (pos_ < matches_.size()) {
      const uint32_t src = matches_[pos_++];
      row->resize(ordinals_.size());
      for (size_t i = 0; i < ordinals_.size(); ++i) {
        (*row)[i] = table_->CellAt(src, ordinals_[i]);
      }
      if (has_residual_) {
        ORQ_ASSIGN_OR_RETURN(bool keep, residual_.EvalPredicate(*row, ctx));
        if (!keep) continue;
      }
      return true;
    }
    return false;
  }

  void CloseImpl() override {}
  std::string name() const override {
    return "IndexSeek(" + table_->name() + ")";
  }

 private:
  const Table* table_;
  const TableIndex* index_;
  std::vector<int> ordinals_;
  std::vector<Evaluator> key_evals_;
  Evaluator residual_;
  bool has_residual_ = false;
  std::span<const uint32_t> matches_;  // row positions of the key's bucket
  size_t pos_ = 0;
};

class SingleRowOp : public PhysicalOp {
 public:
  SingleRowOp() = default;
  Status OpenImpl(ExecContext*) override {
    done_ = false;
    return Status::OK();
  }
  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (done_) return false;
    done_ = true;
    row->clear();
    return true;
  }
  void CloseImpl() override {}
  std::string name() const override { return "SingleRow"; }

 private:
  bool done_ = false;
};

class EmptyOp : public PhysicalOp {
 public:
  explicit EmptyOp(std::vector<ColumnId> layout) {
    layout_ = std::move(layout);
  }
  Status OpenImpl(ExecContext*) override { return Status::OK(); }
  Result<bool> NextImpl(ExecContext*, Row*) override { return false; }
  void CloseImpl() override {}
  std::string name() const override { return "Empty"; }
};

class SegmentScanOp : public PhysicalOp {
 public:
  explicit SegmentScanOp(std::vector<ColumnId> layout) {
    layout_ = std::move(layout);
  }
  Status OpenImpl(ExecContext* ctx) override {
    if (ctx->segment_stack.empty()) {
      return Status::Internal("SegmentScan outside SegmentApply");
    }
    segment_ = ctx->segment_stack.back();
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (pos_ >= segment_->size()) return false;
    *row = (*segment_)[pos_++];
    return true;
  }
  Status NextColumnsImpl(ExecContext*, ColumnBatch* batch) override {
    const uint32_t n = static_cast<uint32_t>(std::min(
        segment_->size() - pos_, static_cast<size_t>(batch->capacity())));
    ORQ_RETURN_IF_ERROR(
        batch->SetRows(segment_->data() + pos_, n, layout_.size()));
    pos_ += n;
    return Status::OK();
  }
  void CloseImpl() override {}
  std::string name() const override { return "SegmentScan"; }

 private:
  const std::vector<Row>* segment_ = nullptr;
  size_t pos_ = 0;
};

}  // namespace

PhysicalOpPtr MakeTableScan(const Table* table, std::vector<int> ordinals,
                            std::vector<ColumnId> layout) {
  return std::make_unique<TableScanOp>(table, std::move(ordinals),
                                       std::move(layout));
}

PhysicalOpPtr MakeIndexSeek(const Table* table, const TableIndex* index,
                            std::vector<ScalarExprPtr> key_exprs,
                            std::vector<int> ordinals,
                            std::vector<ColumnId> layout,
                            ScalarExprPtr residual) {
  return std::make_unique<IndexSeekOp>(table, index, std::move(key_exprs),
                                       std::move(ordinals), std::move(layout),
                                       std::move(residual));
}

PhysicalOpPtr MakeSingleRowOp() { return std::make_unique<SingleRowOp>(); }

PhysicalOpPtr MakeEmptyOp(std::vector<ColumnId> layout) {
  return std::make_unique<EmptyOp>(std::move(layout));
}

PhysicalOpPtr MakeSegmentScanOp(std::vector<ColumnId> layout) {
  return std::make_unique<SegmentScanOp>(std::move(layout));
}

SharedRegionStatePtr MakeMorselSource() {
  return std::make_shared<MorselSource>();
}

PhysicalOpPtr MakeMorselScan(const Table* table, std::vector<int> ordinals,
                             std::vector<ColumnId> layout,
                             SharedRegionStatePtr source) {
  return std::make_unique<MorselScanOp>(table, std::move(ordinals),
                                        std::move(layout), std::move(source));
}

}  // namespace orq
