#include <algorithm>
#include <vector>

#include "common/key_table.h"
#include "exec/evaluator.h"
#include "exec/key_columns.h"
#include "exec/ops.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// Recursively splits nested top-level ANDs into conjuncts. Evaluating
/// flattened conjuncts left to right with false-drops-immediately /
/// null-marks-but-keeps reproduces the row evaluator's n-ary AND exactly,
/// including which rows a later erroring conjunct gets to see.
void FlattenAnd(const ScalarExprPtr& e, std::vector<ScalarExprPtr>* out) {
  if (e->kind == ScalarKind::kAnd) {
    for (const ScalarExprPtr& child : e->children) FlattenAnd(child, out);
    return;
  }
  out->push_back(e);
}

class FilterOp : public PhysicalOp {
 public:
  FilterOp(PhysicalOpPtr child, ScalarExprPtr predicate) {
    layout_ = child->layout();
    // A single non-AND predicate keeps rows by EvalPredicate's rule
    // (non-NULL, *boolean*, true); conjuncts split from an AND keep rows
    // the way the AND node consumes children: any non-NULL truthy value.
    single_conjunct_ = predicate->kind != ScalarKind::kAnd;
    std::vector<ScalarExprPtr> parts;
    FlattenAnd(predicate, &parts);
    conjuncts_.reserve(parts.size());
    for (const ScalarExprPtr& part : parts) {
      Conjunct cj;
      cj.vec.Compile(part, layout_);
      if (!cj.vec.vectorizable()) cj.row = Evaluator(part, layout_);
      conjuncts_.push_back(std::move(cj));
    }
    predicate_ = Evaluator(std::move(predicate), layout_);
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    return children_[0]->Open(ctx);
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (true) {
      ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, row));
      if (!more) return false;
      ORQ_ASSIGN_OR_RETURN(bool keep, predicate_.EvalPredicate(*row, ctx));
      if (keep) {
        return true;
      }
    }
  }

  /// Columnar filter: the child fills `out` (views and all); conjuncts
  /// narrow the selection vector in place — survivors are marked, not
  /// copied. Rows a conjunct evaluates to NULL stay selected (the row
  /// engine's AND keeps evaluating later children past a NULL, and a later
  /// conjunct may error or return false on them) and are removed at the
  /// end. Loops past fully-filtered input so selected() == 0 means EOS.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    while (true) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, out));
      if (out->selected() == 0) return Status::OK();  // end of stream
      null_mark_.assign(out->num_rows(), 0);
      bool any_mark = false;
      for (Conjunct& cj : conjuncts_) {
        if (out->selected() == 0) break;
        if (cj.vec.vectorizable()) {
          ORQ_ASSIGN_OR_RETURN(const ColumnVec* r, cj.vec.Eval(*out, ctx));
          Narrow(out, &any_mark, [&](uint32_t i) {
            int t = PredTruthElem(*r, i);
            if (single_conjunct_) {
              // EvalPredicate: non-NULL boolean true keeps, all else drops.
              return t == 1 && r->type() == DataType::kBool ? 1 : 0;
            }
            return t;
          });
        } else {
          Status err;
          Narrow(out, &any_mark, [&](uint32_t i) {
            if (!err.ok()) return 0;
            out->DecodeRow(i, &decode_row_);
            Result<Value> v = cj.row.Eval(decode_row_, ctx);
            if (!v.ok()) {
              err = v.status();
              return 0;
            }
            if (single_conjunct_) {
              return !v->is_null() && v->type() == DataType::kBool &&
                             v->bool_value()
                         ? 1
                         : 0;
            }
            return v->is_null() ? -1 : (v->bool_value() ? 1 : 0);
          });
          ORQ_RETURN_IF_ERROR(err);
        }
      }
      if (any_mark && out->selected() > 0) {
        std::vector<uint32_t>& sel = *out->MutableSelection();
        uint32_t w = 0;
        for (uint32_t j = 0; j < sel.size(); ++j) {
          if (null_mark_[sel[j]] == 0) sel[w++] = sel[j];
        }
        sel.resize(static_cast<size_t>(w));
      }
      if (out->selected() > 0) return Status::OK();
    }
  }

  void CloseImpl() override { children_[0]->Close(); }
  std::string name() const override { return "Filter"; }

 private:
  struct Conjunct {
    ColumnarEvaluator vec;
    Evaluator row;  // fallback, set only when !vec.vectorizable()
  };

  /// Rewrites the selection keeping rows whose truth is nonzero; truth < 0
  /// additionally null-marks the row for removal after the last conjunct.
  template <typename TruthFn>
  void Narrow(ColumnBatch* out, bool* any_mark, TruthFn truth) {
    if (!out->has_selection()) {
      const uint32_t n = out->num_rows();
      std::vector<uint32_t>* sel = out->MutableSelection();
      sel->clear();
      for (uint32_t i = 0; i < n; ++i) {
        const int t = truth(i);
        if (t == 0) continue;
        if (t < 0) {
          null_mark_[i] = 1;
          *any_mark = true;
        }
        sel->push_back(i);
      }
      return;
    }
    std::vector<uint32_t>& sel = *out->MutableSelection();
    uint32_t w = 0;
    for (uint32_t j = 0; j < sel.size(); ++j) {
      const uint32_t i = sel[j];
      const int t = truth(i);
      if (t == 0) continue;
      if (t < 0) {
        null_mark_[i] = 1;
        *any_mark = true;
      }
      sel[w++] = i;
    }
    sel.resize(static_cast<size_t>(w));
  }

  Evaluator predicate_;
  std::vector<Conjunct> conjuncts_;
  bool single_conjunct_ = false;
  std::vector<uint8_t> null_mark_;
  Row decode_row_;
};

class ComputeOp : public PhysicalOp {
 public:
  ComputeOp(PhysicalOpPtr child, std::vector<ProjectItem> items,
            std::vector<ColumnId> passthrough) {
    const std::vector<ColumnId>& in = child->layout();
    for (ColumnId id : passthrough) {
      for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] == id) {
          pass_slots_.push_back(static_cast<int>(i));
          layout_.push_back(id);
          break;
        }
      }
    }
    for (ProjectItem& item : items) {
      layout_.push_back(item.output);
      evals_.emplace_back(item.expr, in);
      cevals_.emplace_back(std::make_unique<ColumnarEvaluator>());
      cevals_.back()->Compile(item.expr, in);
    }
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    return children_[0]->Open(ctx);
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    Row input;
    ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, &input));
    if (!more) return false;
    row->clear();
    row->reserve(layout_.size());
    for (int slot : pass_slots_) row->push_back(input[slot]);
    for (const Evaluator& eval : evals_) {
      ORQ_ASSIGN_OR_RETURN(Value v, eval.Eval(input, ctx));
      row->push_back(std::move(v));
    }
    return true;
  }

  /// Columnar projection: passthrough columns are view assignments (zero
  /// copy), and each expression is a view of its ColumnarEvaluator's
  /// result (column kernels, or the row evaluator per decoded row).
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    if (cinput_ == nullptr) {
      cinput_ = std::make_unique<ColumnBatch>(out->capacity());
    }
    ColumnBatch& in = *cinput_;
    ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, &in));
    if (in.selected() == 0) return Status::OK();  // end of stream
    const uint32_t n = in.num_rows();
    out->ResizeCols(layout_.size());
    for (size_t k = 0; k < pass_slots_.size(); ++k) {
      out->col(k).AssignView(in.col(pass_slots_[k]));
    }
    for (size_t j = 0; j < cevals_.size(); ++j) {
      ORQ_ASSIGN_OR_RETURN(const ColumnVec* r,
                           cevals_[j]->EvalOrFallback(in, evals_[j], ctx));
      out->col(pass_slots_.size() + j).AssignView(*r);
    }
    out->set_num_rows(n);
    if (in.has_selection()) *out->MutableSelection() = in.selection();
    return Status::OK();
  }

  void CloseImpl() override { children_[0]->Close(); }
  std::string name() const override { return "Compute"; }

 private:
  std::vector<int> pass_slots_;
  std::vector<Evaluator> evals_;
  /// unique_ptr so the vector stays movable even though ColumnarEvaluator
  /// holds scratch-pool state; index-aligned with evals_.
  std::vector<std::unique_ptr<ColumnarEvaluator>> cevals_;
  std::unique_ptr<ColumnBatch> cinput_;  // allocated on the first pull
};

class SortOp : public PhysicalOp {
 public:
  SortOp(PhysicalOpPtr child, std::vector<SortKey> keys, int64_t limit)
      : keys_(std::move(keys)), limit_(limit) {
    layout_ = child->layout();
    for (const SortKey& key : keys_) {
      evals_.emplace_back(key.expr, layout_);
    }
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    rows_.clear();
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    Status drain = DrainRows(children_[0].get(), ctx, [this](Row& row) {
      rows_.push_back(std::move(row));
      return Status::OK();
    });
    children_[0]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    RecordPeak(static_cast<int64_t>(rows_.size()));
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kSpoolRows, static_cast<int64_t>(rows_.size()));
    }
    if (!keys_.empty()) {
      // Precompute sort keys per row.
      std::vector<std::pair<Row, size_t>> keyed(rows_.size());
      for (size_t i = 0; i < rows_.size(); ++i) {
        Row key(keys_.size());
        for (size_t k = 0; k < keys_.size(); ++k) {
          Result<Value> v = evals_[k].Eval(rows_[i], ctx);
          if (!v.ok()) return v.status();
          key[k] = std::move(*v);
        }
        keyed[i] = {std::move(key), i};
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [this](const auto& a, const auto& b) {
                         for (size_t k = 0; k < keys_.size(); ++k) {
                           int c = a.first[k].TotalCompare(b.first[k]);
                           if (c != 0) {
                             return keys_[k].ascending ? c < 0 : c > 0;
                           }
                         }
                         return false;
                       });
      std::vector<Row> sorted(rows_.size());
      for (size_t i = 0; i < keyed.size(); ++i) {
        sorted[i] = std::move(rows_[keyed[i].second]);
      }
      rows_ = std::move(sorted);
    }
    if (limit_ >= 0 && rows_.size() > static_cast<size_t>(limit_)) {
      rows_.resize(limit_);
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (pos_ >= rows_.size()) return false;
    // The buffer is rebuilt on re-Open, so emission can move rows out.
    *row = std::move(rows_[pos_++]);
    return true;
  }

  /// Columnar emission: the sorted buffer is transposed window-by-window
  /// into typed columns, so a columnar parent keeps its batch pipeline
  /// across the sort.
  Status NextColumnsImpl(ExecContext*, ColumnBatch* batch) override {
    const uint32_t n = static_cast<uint32_t>(std::min(
        rows_.size() - pos_, static_cast<size_t>(batch->capacity())));
    ORQ_RETURN_IF_ERROR(
        batch->SetRows(rows_.data() + pos_, n, layout_.size()));
    pos_ += n;
    return Status::OK();
  }

  void CloseImpl() override { rows_.clear(); }
  std::string name() const override {
    return limit_ >= 0 ? "TopSort(" + std::to_string(limit_) + ")" : "Sort";
  }

 private:
  std::vector<SortKey> keys_;
  int64_t limit_;
  std::vector<Evaluator> evals_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class Max1rowOp : public PhysicalOp {
 public:
  explicit Max1rowOp(PhysicalOpPtr child) {
    layout_ = child->layout();
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    seen_ = 0;
    return children_[0]->Open(ctx);
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, row));
    if (!more) return false;
    if (++seen_ > 1) {
      return Status::CardinalityViolation(
          "scalar subquery returned more than one row");
    }
    return true;
  }

  /// Pass-through of whole batches; a second row anywhere in the stream
  /// fails the query, as on the row path.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* batch) override {
    ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, batch));
    seen_ += static_cast<int64_t>(batch->selected());
    if (seen_ > 1) {
      return Status::CardinalityViolation(
          "scalar subquery returned more than one row");
    }
    return Status::OK();
  }

  void CloseImpl() override { children_[0]->Close(); }
  std::string name() const override { return "Max1row"; }

 private:
  int64_t seen_ = 0;
};

class UnionAllOp : public PhysicalOp {
 public:
  UnionAllOp(std::vector<PhysicalOpPtr> children,
             std::vector<ColumnId> layout) {
    layout_ = std::move(layout);
    children_ = std::move(children);
  }

  Status OpenImpl(ExecContext* ctx) override {
    current_ = 0;
    if (children_.empty()) return Status::OK();
    return children_[0]->Open(ctx);
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (current_ < children_.size()) {
      ORQ_ASSIGN_OR_RETURN(bool more, children_[current_]->Next(ctx, row));
      if (more) {
        return true;
      }
      children_[current_]->Close();
      ++current_;
      if (current_ < children_.size()) {
        ORQ_RETURN_IF_ERROR(children_[current_]->Open(ctx));
      }
    }
    return false;
  }

  /// Whole-batch passthrough, same child rotation: children produce
  /// positionally aligned layouts, so the current child fills the output
  /// batch directly and zero-copy scan views cross the union untouched.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* batch) override {
    while (current_ < children_.size()) {
      ORQ_RETURN_IF_ERROR(children_[current_]->NextColumns(ctx, batch));
      if (batch->selected() > 0) return Status::OK();
      children_[current_]->Close();
      ++current_;
      if (current_ < children_.size()) {
        ORQ_RETURN_IF_ERROR(children_[current_]->Open(ctx));
      }
    }
    return Status::OK();
  }

  void CloseImpl() override {}
  std::string name() const override { return "UnionAll"; }

 private:
  size_t current_ = 0;
};

/// Bag difference: each right row cancels one equal (grouping semantics:
/// NULLs equal, Int64(3) == Double(3.0)) left row, in left stream order.
/// The right input is counted into a KeyTable keyed by all its columns —
/// one count per distinct row id — column-keyed in columnar mode, so
/// neither side decodes a row there.
class ExceptAllOp : public PhysicalOp {
 public:
  ExceptAllOp(PhysicalOpPtr left, PhysicalOpPtr right,
              std::vector<ColumnId> layout) {
    layout_ = std::move(layout);
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  Status OpenImpl(ExecContext* ctx) override {
    keys_.Reset(layout_.size());
    counts_.clear();
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    Status drain = DrainBatches(
        children_[1].get(), ctx,
        [this](Row& row) {
          bool inserted = false;
          Count(keys_.InsertRow(row, RowHash{}(row), &inserted));
          return Status::OK();
        },
        [this](ColumnBatch& batch) {
          HashRows(batch);
          GroupIds(&keys_, batch, cols_.data(), hashes_, &ids_);
          for (uint32_t id : ids_) Count(id);
          return keys_.status();
        });
    children_[1]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    ORQ_RETURN_IF_ERROR(keys_.status());
    RecordPeak(static_cast<int64_t>(keys_.size()));
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kSpoolRows, static_cast<int64_t>(keys_.size()));
    }
    return children_[0]->Open(ctx);
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (true) {
      ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, row));
      if (!more) return false;
      if (Cancel(keys_.FindRow(*row))) continue;
      return true;
    }
  }

  /// Columnar emission: the left child fills `out`, and rows cancelled
  /// by a right-side occurrence drop out of the selection vector, in
  /// stream order exactly like the row path. Loops past fully cancelled
  /// batches so an empty selection still means end of stream.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    while (true) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, out));
      const uint32_t live = out->selected();
      if (live == 0) return Status::OK();
      HashRows(*out);
      keep_.clear();
      for (uint32_t j = 0; j < live; ++j) {
        const uint32_t i = out->RowAt(j);
        if (!Cancel(FindColumns(keys_, cols_.data(), i, hashes_[j]))) {
          keep_.push_back(i);
        }
      }
      if (keep_.empty()) continue;
      if (keep_.size() < live) *out->MutableSelection() = keep_;
      return Status::OK();
    }
  }

  void CloseImpl() override {
    children_[0]->Close();
    keys_.Reset(0);
    counts_.clear();
  }
  std::string name() const override { return "ExceptAll"; }

 private:
  void Count(uint32_t id) {
    if (id == counts_.size()) counts_.push_back(0);
    ++counts_[id];
  }

  /// Uses up one right occurrence of row id `id`; false when none is left.
  bool Cancel(uint32_t id) {
    if (id == KeyTable::kNone || counts_[id] == 0) return false;
    --counts_[id];
    return true;
  }

  /// Points cols_ at every column of `batch` and hashes its live rows.
  void HashRows(const ColumnBatch& batch) {
    cols_.resize(layout_.size());
    InitKeyHashes(batch, &hashes_);
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c] = &batch.col(c);
      HashCombineColumn(batch, *cols_[c], &hashes_);
    }
  }

  KeyTable keys_;                // distinct right rows
  std::vector<int64_t> counts_;  // right occurrences left, by row id
  /// Columnar scratch: row columns, per-live-row hashes and ids, and the
  /// surviving physical rows of one batch.
  std::vector<const ColumnVec*> cols_;
  std::vector<size_t> hashes_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> keep_;
};

}  // namespace

PhysicalOpPtr MakeFilterOp(PhysicalOpPtr child, ScalarExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}

PhysicalOpPtr MakeComputeOp(PhysicalOpPtr child,
                            std::vector<ProjectItem> items,
                            std::vector<ColumnId> passthrough) {
  return std::make_unique<ComputeOp>(std::move(child), std::move(items),
                                     std::move(passthrough));
}

PhysicalOpPtr MakeSortOp(PhysicalOpPtr child, std::vector<SortKey> keys,
                         int64_t limit) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys), limit);
}

PhysicalOpPtr MakeMax1rowOp(PhysicalOpPtr child) {
  return std::make_unique<Max1rowOp>(std::move(child));
}

PhysicalOpPtr MakeUnionAllOp(std::vector<PhysicalOpPtr> children,
                             std::vector<ColumnId> layout) {
  return std::make_unique<UnionAllOp>(std::move(children), std::move(layout));
}

PhysicalOpPtr MakeExceptAllOp(PhysicalOpPtr left, PhysicalOpPtr right,
                              std::vector<ColumnId> layout) {
  return std::make_unique<ExceptAllOp>(std::move(left), std::move(right),
                                       std::move(layout));
}

}  // namespace orq
