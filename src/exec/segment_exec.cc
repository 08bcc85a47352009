#include <memory>
#include <unordered_map>

#include "exec/ops.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// Segmented execution (paper section 3.4): partition the input on the key
/// slots, run the inner plan once per segment with the segment's rows
/// published on the context's segment stack, and emit the segment key
/// prepended to each inner row.
class SegmentApplyOp : public PhysicalOp {
 public:
  SegmentApplyOp(PhysicalOpPtr input, PhysicalOpPtr inner,
                 std::vector<int> key_slots, std::vector<ColumnId> layout)
      : key_slots_(std::move(key_slots)) {
    layout_ = std::move(layout);
    children_.push_back(std::move(input));
    children_.push_back(std::move(inner));
  }

  Status OpenImpl(ExecContext* ctx) override {
    segments_.clear();
    order_.clear();
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    Row key(key_slots_.size());
    Status drain = DrainRows(children_[0].get(), ctx, [&](Row& row) {
      key.resize(key_slots_.size());
      for (size_t i = 0; i < key_slots_.size(); ++i) {
        key[i] = row[key_slots_[i]];
      }
      auto it = segments_.find(key);
      if (it == segments_.end()) {
        it = segments_.emplace(std::move(key), std::vector<Row>()).first;
        order_.push_back(&*it);
      }
      it->second.push_back(std::move(row));
      return Status::OK();
    });
    children_[0]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    RecordPeak(static_cast<int64_t>(segments_.size()));
    segment_pos_ = 0;
    inner_open_ = false;
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (true) {
      if (!inner_open_) {
        if (segment_pos_ >= order_.size()) return false;
        ORQ_RETURN_IF_ERROR(OpenInner(ctx));
      }
      Row inner;
      Result<bool> more = children_[1]->Next(ctx, &inner);
      if (!more.ok()) {
        CloseInner(ctx);
        return more.status();
      }
      if (!*more) {
        CloseInner(ctx);
        ++segment_pos_;
        continue;
      }
      *row = order_[segment_pos_]->first;  // the segment key {a}
      row->insert(row->end(), inner.begin(), inner.end());
      return true;
    }
  }

  /// Columnar emission: each segment's inner is pulled through
  /// NextColumns, and every inner batch gets the segment key prepended as
  /// constant columns; the inner's columns and selection pass through as
  /// views (valid until the next pull, like any batch).
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    if (inner_batch_ == nullptr) {
      inner_batch_ = std::make_unique<ColumnBatch>(out->capacity());
    }
    while (true) {
      if (!inner_open_) {
        if (segment_pos_ >= order_.size()) return Status::OK();
        ORQ_RETURN_IF_ERROR(OpenInner(ctx));
      }
      Status status = children_[1]->NextColumns(ctx, inner_batch_.get());
      if (!status.ok()) {
        CloseInner(ctx);
        return status;
      }
      const ColumnBatch& in = *inner_batch_;
      if (in.selected() == 0) {
        CloseInner(ctx);
        ++segment_pos_;
        continue;
      }
      const Row& key = order_[segment_pos_]->first;
      const uint32_t n = in.num_rows();
      out->ResizeCols(layout_.size());
      for (size_t k = 0; k < key.size(); ++k) {
        ColumnVec& col = out->col(k);
        col.StartBuild(key[k].type(), n);
        for (uint32_t i = 0; i < n; ++i) {
          ORQ_RETURN_IF_ERROR(col.AppendValue(key[k]));
        }
        col.Seal();
      }
      for (size_t c = 0; c < in.num_cols(); ++c) {
        out->col(key.size() + c).AssignView(in.col(c));
      }
      out->set_num_rows(n);
      if (in.has_selection()) *out->MutableSelection() = in.selection();
      return Status::OK();
    }
  }

  void CloseImpl() override {
    segments_.clear();
    order_.clear();
  }

  std::string name() const override { return "SegmentApply"; }

 private:
  /// Publishes the current segment and (re-)opens the inner over it.
  Status OpenInner(ExecContext* ctx) {
    ctx->segment_stack.push_back(&order_[segment_pos_]->second);
    Status status = children_[1]->Open(ctx);
    if (!status.ok()) {
      ctx->segment_stack.pop_back();
      return status;
    }
    inner_open_ = true;
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kSegmentInnerOpens, 1);
    }
    return Status::OK();
  }

  void CloseInner(ExecContext* ctx) {
    if (inner_open_) {
      children_[1]->Close();
      ctx->segment_stack.pop_back();
      inner_open_ = false;
    }
  }

  std::vector<int> key_slots_;
  using SegmentMap =
      std::unordered_map<Row, std::vector<Row>, RowHash, RowGroupEq>;
  SegmentMap segments_;
  std::vector<SegmentMap::value_type*> order_;
  size_t segment_pos_ = 0;
  bool inner_open_ = false;
  std::unique_ptr<ColumnBatch> inner_batch_;  // allocated on the first pull
};

}  // namespace

PhysicalOpPtr MakeSegmentApplyOp(PhysicalOpPtr input, PhysicalOpPtr inner,
                                 std::vector<int> key_slots,
                                 std::vector<ColumnId> layout) {
  return std::make_unique<SegmentApplyOp>(std::move(input), std::move(inner),
                                          std::move(key_slots),
                                          std::move(layout));
}

}  // namespace orq
