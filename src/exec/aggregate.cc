#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "common/key_table.h"
#include "exec/evaluator.h"
#include "exec/key_columns.h"
#include "exec/ops.h"
#include "exec/parallel.h"
#include "exec/sum_accum.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// One aggregate's accumulators, struct-of-arrays: entry g belongs to
/// group id g. Resize sizes only the arrays the function reads.
struct AggSlots {
  std::vector<int64_t> count;      // count(*), Max1Row: rows seen
  std::vector<int64_t> non_null;   // count(x), sum(x): non-NULL inputs
  std::vector<SumAccum> sum;       // sum(x)
  std::vector<Value> extreme;      // min/max/Max1Row value
  std::vector<uint8_t> has_value;  // extreme is set
  std::vector<std::unordered_set<Row, RowHash, RowGroupEq>> distinct;

  void Resize(const AggItem& agg, size_t groups) {
    switch (agg.func) {
      case AggFunc::kCountStar:
        count.resize(groups);
        break;
      case AggFunc::kCount:
        non_null.resize(groups);
        break;
      case AggFunc::kSum:
        non_null.resize(groups);
        sum.resize(groups);
        break;
      case AggFunc::kMax1Row:
        count.resize(groups);
        [[fallthrough]];
      case AggFunc::kMin:
      case AggFunc::kMax:
        extreme.resize(groups);
        has_value.resize(groups);
        break;
    }
    if (agg.distinct) distinct.resize(groups);
  }

  void Clear() {
    count.clear();
    non_null.clear();
    sum.clear();
    extreme.clear();
    has_value.clear();
    distinct.clear();
  }
};

/// A hash aggregation's state: the group keys, whose KeyTable ids are the
/// group ids in first-arrival order, and each aggregate's accumulators.
struct AggTable {
  KeyTable keys;
  std::vector<AggSlots> aggs;

  void Reset(size_t width, size_t num_aggs) {
    keys.Reset(width);
    aggs.resize(num_aggs);
    for (AggSlots& slots : aggs) slots.Clear();
  }
  uint32_t groups() const { return keys.size(); }
  /// Sizes every aggregate's accumulators to the current group count.
  void Resize(const std::vector<AggItem>& items) {
    for (size_t i = 0; i < items.size(); ++i) {
      aggs[i].Resize(items[i], keys.size());
    }
  }
};

/// Whether `cmp` (candidate vs current extreme) replaces a MIN/MAX.
bool Improves(AggFunc func, int cmp) {
  return func == AggFunc::kMin ? cmp < 0 : cmp > 0;
}

/// Folds group `from_g` of a worker's partial into group `to` of the
/// merged table. Additive counters add; min/max keep the better extreme.
/// DISTINCT and Max1Row aggregates never reach here — the plan builder
/// excludes them from parallel regions (their merge is not a simple fold).
void MergeGroup(const AggItem& agg, AggSlots* into, uint32_t to,
                AggSlots* from, uint32_t from_g) {
  switch (agg.func) {
    case AggFunc::kCountStar:
      into->count[to] += from->count[from_g];
      break;
    case AggFunc::kCount:
      into->non_null[to] += from->non_null[from_g];
      break;
    case AggFunc::kSum:
      into->non_null[to] += from->non_null[from_g];
      into->sum[to].Merge(from->sum[from_g]);
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (from->has_value[from_g] &&
          (!into->has_value[to] ||
           Improves(agg.func, from->extreme[from_g].TotalCompare(
                                  into->extreme[to])))) {
        into->extreme[to] = std::move(from->extreme[from_g]);
        into->has_value[to] = 1;
      }
      break;
    case AggFunc::kMax1Row:
      break;
  }
}

/// End-of-input rendezvous of a parallel hash aggregation. Every worker
/// aggregates its morsel share locally, deposits the partial here, and the
/// last depositor merges groups across workers. Worker 0's operator then
/// emits the merged result; the others emit nothing. Deposits happen even
/// on drain errors so the barrier always completes.
class SharedAggState final : public SharedRegionState {
 public:
  explicit SharedAggState(int workers)
      : workers_(workers), partials_(static_cast<size_t>(workers)) {}

  void Reset() override {
    std::lock_guard<std::mutex> lock(mu_);
    deposited_ = 0;
    merge_done_ = false;
    status_ = Status::OK();
    for (AggTable& partial : partials_) partial = AggTable{};
    merged_ = AggTable{};
  }

  /// Blocks until all workers deposited and the merge completed; returns
  /// the first deposited error. `aggs` describes the accumulator fold and
  /// is identical across workers.
  Status Deposit(int worker, const Status& drain, AggTable partial,
                 const std::vector<AggItem>& aggs) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain.ok() && status_.ok()) status_ = drain;
    partials_[static_cast<size_t>(worker)] = std::move(partial);
    if (++deposited_ == workers_) {
      if (status_.ok()) {
        Merge(aggs);
        status_ = merged_.keys.status();
      }
      merge_done_ = true;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return merge_done_; });
    }
    return status_;
  }

  /// Merged result, valid after Deposit returned OK; read-only thereafter.
  const AggTable& merged() const { return merged_; }

 private:
  /// Runs under mu_ on the last depositor's thread. Worker order fixes the
  /// merged emission order deterministically (worker 0's groups first, in
  /// its insertion order, then worker 1's new groups, ...).
  void Merge(const std::vector<AggItem>& aggs) {
    merged_.Reset(partials_[0].keys.width(), aggs.size());
    for (AggTable& partial : partials_) {
      for (uint32_t g = 0; g < partial.groups(); ++g) {
        bool inserted = false;
        const uint32_t to = merged_.keys.InsertFrom(partial.keys, g, &inserted);
        if (inserted) merged_.Resize(aggs);
        for (size_t i = 0; i < aggs.size(); ++i) {
          MergeGroup(aggs[i], &merged_.aggs[i], to, &partial.aggs[i], g);
        }
      }
      partial = AggTable{};
    }
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int deposited_ = 0;
  bool merge_done_ = false;
  Status status_;
  std::vector<AggTable> partials_;
  AggTable merged_;
};

/// Runs f(j, r) for every live row (selection position j, physical row r)
/// whose `col` entry is not NULL.
template <typename F>
inline void ForEachNonNull(const ColumnBatch& batch, const ColumnVec& col,
                           F&& f) {
  const uint32_t m = batch.selected();
  if (!col.has_nulls()) {
    for (uint32_t j = 0; j < m; ++j) f(j, batch.RowAt(j));
    return;
  }
  for (uint32_t j = 0; j < m; ++j) {
    const uint32_t r = batch.RowAt(j);
    if (!col.IsNull(r)) f(j, r);
  }
}

/// Adds a batch into one aggregate's accumulators, live row j into group
/// gid[j]: one typed loop per function and argument representation. Only
/// for COUNT/SUM/MIN/MAX without DISTINCT over a vectorized argument
/// (`col`; null for count(*)), which no row can fail. Each group sees its
/// rows in input order, as on the per-row path.
void Scatter(const AggItem& agg, AggSlots* s, const ColumnBatch& batch,
             const uint32_t* gid, const ColumnVec* col) {
  if (agg.func == AggFunc::kCountStar) {
    int64_t* count = s->count.data();
    for (uint32_t j = 0; j < batch.selected(); ++j) ++count[gid[j]];
    return;
  }
  int64_t* non_null = s->non_null.data();
  switch (agg.func) {
    case AggFunc::kCount:
      ForEachNonNull(batch, *col,
                     [&](uint32_t j, uint32_t) { ++non_null[gid[j]]; });
      break;
    case AggFunc::kSum: {
      SumAccum* sum = s->sum.data();
      switch (col->rep()) {
        case ColumnRep::kInts:
          ForEachNonNull(batch, *col, [&](uint32_t j, uint32_t r) {
            sum[gid[j]].AddInt(col->IntAt(r));
            ++non_null[gid[j]];
          });
          break;
        case ColumnRep::kDoubles:
          ForEachNonNull(batch, *col, [&](uint32_t j, uint32_t r) {
            sum[gid[j]].AddDouble(col->DoubleAt(r));
            ++non_null[gid[j]];
          });
          break;
        case ColumnRep::kStrings:
          // Strings sum to nothing (Value::int64_value() of a string is
          // 0) but still count as non-NULL inputs, like the row path.
          ForEachNonNull(batch, *col,
                         [&](uint32_t j, uint32_t) { ++non_null[gid[j]]; });
          break;
      }
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      ForEachNonNull(batch, *col, [&](uint32_t j, uint32_t r) {
        const uint32_t g = gid[j];
        if (s->has_value[g] &&
            !Improves(agg.func, TotalCompareRefs(LoadElem(*col, r),
                                                 LoadValue(s->extreme[g])))) {
          return;
        }
        s->extreme[g] = col->GetValue(r);
        s->has_value[g] = 1;
      });
      break;
    default:
      break;
  }
}

class HashAggregateOp : public PhysicalOp {
 public:
  HashAggregateOp(PhysicalOpPtr child, std::vector<ColumnId> group_cols,
                  std::vector<AggItem> aggs, bool scalar,
                  SharedRegionStatePtr shared, int worker)
      : aggs_(std::move(aggs)),
        scalar_(scalar),
        worker_(worker),
        shared_(std::static_pointer_cast<SharedAggState>(shared)) {
    const std::vector<ColumnId>& in = child->layout();
    for (ColumnId g : group_cols) {
      for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] == g) {
          group_slots_.push_back(static_cast<int>(i));
          break;
        }
      }
      layout_.push_back(g);
    }
    for (const AggItem& agg : aggs_) {
      layout_.push_back(agg.output);
      arg_evals_.emplace_back(
          agg.arg != nullptr ? Evaluator(agg.arg, in) : Evaluator());
      cargs_.emplace_back(nullptr);
      if (agg.arg != nullptr) {
        cargs_.back() = std::make_unique<ColumnarEvaluator>();
        cargs_.back()->Compile(agg.arg, in);
      }
      // The scatter loops take exactly the fold-style aggregates over
      // arguments that cannot fail: COUNT/SUM/MIN/MAX without DISTINCT,
      // arguments fully vectorized. DISTINCT, Max1Row (its cardinality
      // check) and row-evaluated arguments (their errors surface in row
      // order) fold per row.
      const bool fold_func =
          agg.func == AggFunc::kCountStar || agg.func == AggFunc::kCount ||
          agg.func == AggFunc::kSum || agg.func == AggFunc::kMin ||
          agg.func == AggFunc::kMax;
      const bool scatter =
          fold_func && !agg.distinct &&
          (agg.arg == nullptr || cargs_.back()->vectorizable());
      scatter_.push_back(scatter);
      any_per_row_ = any_per_row_ || !scatter;
    }
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    table_.Reset(group_slots_.size(), aggs_.size());
    emit_pos_ = 0;
    if (shared_ == nullptr) {
      ORQ_RETURN_IF_ERROR(DrainInput(ctx));
      emitter_ = true;
      emit_ = &table_;
      RecordGroups();
      return Status::OK();
    }
    // Parallel: aggregate this worker's share locally, then hand the
    // partial to the merge barrier (errors ride along so the gang never
    // stalls). Worker 0 emits the merged groups; the rest emit nothing.
    Status drain = DrainInput(ctx);
    AggTable partial;
    if (drain.ok()) std::swap(partial, table_);
    Status status = shared_->Deposit(worker_, drain, std::move(partial),
                                     aggs_);
    table_.Reset(group_slots_.size(), aggs_.size());
    if (!status.ok()) return status;
    emitter_ = (worker_ == 0);
    emit_ = &shared_->merged();
    if (emitter_) RecordGroups();
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (!emitter_) return false;
    if (scalar_ && emit_->groups() == 0) {
      if (emit_pos_ > 0) return false;
      ++emit_pos_;
      // Aggregates over the empty input (section 1.1): count = 0, the rest
      // NULL.
      row->clear();
      for (const AggItem& agg : aggs_) {
        row->push_back(AggNullOnEmpty(agg.func) ? Value::Null()
                                                : Value::Int64(0));
      }
      return true;
    }
    if (emit_pos_ >= emit_->groups()) return false;
    const uint32_t g = static_cast<uint32_t>(emit_pos_++);
    row->clear();
    for (size_t k = 0; k < group_slots_.size(); ++k) {
      row->push_back(emit_->keys.KeyAt(g, k));
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      row->push_back(Finalize(aggs_[i], emit_->aggs[i], g));
    }
    return true;
  }

  /// Columnar emission: key columns are views of the group table's typed
  /// key columns; each aggregate column is built from its finalized
  /// values, typed by the window's first non-NULL one. The scalar
  /// aggregate's one empty-input row goes through the row adapter.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    if (!emitter_) return Status::OK();
    if (scalar_ && emit_->groups() == 0) return FillColumnsFromRows(ctx, out);
    const uint32_t begin = static_cast<uint32_t>(emit_pos_);
    const uint32_t n = std::min(emit_->groups() - begin,
                                static_cast<uint32_t>(out->capacity()));
    if (n == 0) return Status::OK();
    const size_t num_keys = group_slots_.size();
    out->ResizeCols(layout_.size());
    for (size_t k = 0; k < num_keys; ++k) {
      ViewTypedColumn(emit_->keys.col(k), begin, n, &out->col(k));
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      finals_.clear();
      for (uint32_t g = begin; g < begin + n; ++g) {
        finals_.push_back(Finalize(aggs_[i], emit_->aggs[i], g));
      }
      const auto first =
          std::find_if(finals_.begin(), finals_.end(),
                       [](const Value& v) { return !v.is_null(); });
      ColumnVec& col = out->col(num_keys + i);
      col.StartBuild(first == finals_.end() ? DataType::kInt64 : first->type(),
                     n);
      for (const Value& v : finals_) ORQ_RETURN_IF_ERROR(col.AppendValue(v));
      col.Seal();
    }
    out->set_num_rows(n);
    emit_pos_ += n;
    return Status::OK();
  }

  void CloseImpl() override {
    table_.Reset(group_slots_.size(), aggs_.size());
    // Merged shared state is released by the exchange's Close; the emit
    // pointer is re-established on the next Open.
    emit_ = &table_;
  }

  std::string name() const override {
    if (scalar_) return "ScalarAggregate";
    return "HashAggregate";
  }

 private:
  /// Drains the child into table_, then records the group table's probe
  /// lengths (hash quality and load factor in one distribution).
  Status DrainInput(ExecContext* ctx) {
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    Status status = ctx->batched ? DrainColumnar(ctx) : DrainRowwise(ctx);
    children_[0]->Close();
    ORQ_RETURN_IF_ERROR(status);
    ORQ_RETURN_IF_ERROR(table_.keys.status());
    if (MetricsRegistry* m = metrics()) {
      table_.keys.ForEachProbeLength([m](int64_t probes) {
        m->Observe(MetricHistogram::kHashAggBucketChain, probes);
      });
    }
    return Status::OK();
  }

  void RecordGroups() {
    RecordPeak(static_cast<int64_t>(emit_->groups()));
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashAggGroups,
             static_cast<int64_t>(emit_->groups()));
    }
  }

  /// Row-mode drain: one Next and one group lookup per input row.
  Status DrainRowwise(ExecContext* ctx) {
    Row key(group_slots_.size());
    MetricsRegistry* m = metrics();
    return DrainRows(children_[0].get(), ctx, [&](const Row& row) -> Status {
      if (m != nullptr) m->Add(MetricCounter::kHashAggInputRows, 1);
      for (size_t i = 0; i < group_slots_.size(); ++i) {
        key[i] = row[group_slots_[i]];
      }
      bool inserted = false;
      const uint32_t g = table_.keys.InsertRow(key, RowHash{}(key), &inserted);
      if (inserted) table_.Resize(aggs_);
      for (size_t i = 0; i < aggs_.size(); ++i) {
        ORQ_RETURN_IF_ERROR(
            Fold(i, g, [&] { return arg_evals_[i].Eval(row, ctx); }));
      }
      return Status::OK();
    });
  }

  /// Columnar drain, two steps per batch: one group-id vector for the
  /// batch (key hashes computed column-wise, keys copied into the table
  /// only when new), then one scatter loop per aggregate. Per-row
  /// aggregates then fold row by row; a row-evaluated argument decodes
  /// its row once for all of them.
  Status DrainColumnar(ExecContext* ctx) {
    ColumnBatch batch(ctx->batch_size);
    std::vector<size_t> hashes;
    std::vector<uint32_t> gids;
    std::vector<const ColumnVec*> arg_cols(aggs_.size(), nullptr);
    std::vector<const ColumnVec*> key_cols(group_slots_.size(), nullptr);
    Row decode_row;
    MetricsRegistry* m = metrics();
    while (true) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, &batch));
      const uint32_t live = batch.selected();
      if (live == 0) break;
      if (m != nullptr) {
        m->Add(MetricCounter::kHashAggInputRows, static_cast<int64_t>(live));
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        arg_cols[i] = nullptr;
        if (cargs_[i] != nullptr && cargs_[i]->vectorizable()) {
          ORQ_ASSIGN_OR_RETURN(arg_cols[i], cargs_[i]->Eval(batch, ctx));
        }
      }
      if (!group_slots_.empty()) {
        InitKeyHashes(batch, &hashes);
        for (size_t k = 0; k < group_slots_.size(); ++k) {
          key_cols[k] = &batch.col(group_slots_[k]);
          HashCombineColumn(batch, *key_cols[k], &hashes);
        }
      }
      GroupIds(&table_.keys, batch, key_cols.data(), hashes, &gids);
      ORQ_RETURN_IF_ERROR(table_.keys.status());
      table_.Resize(aggs_);
      for (size_t i = 0; i < aggs_.size(); ++i) {
        if (scatter_[i]) {
          Scatter(aggs_[i], &table_.aggs[i], batch, gids.data(), arg_cols[i]);
        }
      }
      if (!any_per_row_) continue;
      for (uint32_t j = 0; j < live; ++j) {
        const uint32_t r = batch.RowAt(j);
        bool decoded = false;
        for (size_t i = 0; i < aggs_.size(); ++i) {
          if (scatter_[i]) continue;
          ORQ_RETURN_IF_ERROR(Fold(i, gids[j], [&]() -> Result<Value> {
            if (arg_cols[i] != nullptr) return arg_cols[i]->GetValue(r);
            if (!decoded) {
              batch.DecodeRow(r, &decode_row);
              decoded = true;
            }
            return arg_evals_[i].Eval(decode_row, ctx);
          }));
        }
      }
    }
    return Status::OK();
  }

  /// The per-row fold of aggregate `i` into group `g`. `arg()` yields the
  /// argument value; count(*) and a Max1Row violation never evaluate it.
  template <typename ArgFn>
  Status Fold(size_t i, uint32_t g, ArgFn&& arg) {
    const AggItem& agg = aggs_[i];
    AggSlots& s = table_.aggs[i];
    if (agg.func == AggFunc::kCountStar) {
      ++s.count[g];
      return Status::OK();
    }
    if (agg.func == AggFunc::kMax1Row && ++s.count[g] > 1) {
      return Status::CardinalityViolation(
          "scalar subquery returned more than one row");
    }
    ORQ_ASSIGN_OR_RETURN(Value v, arg());
    if (agg.func == AggFunc::kMax1Row) {
      s.extreme[g] = std::move(v);
      s.has_value[g] = 1;
      return Status::OK();
    }
    if (v.is_null()) return Status::OK();
    if (agg.distinct && !s.distinct[g].insert(Row{v}).second) {
      return Status::OK();
    }
    switch (agg.func) {
      case AggFunc::kCount:
        ++s.non_null[g];
        break;
      case AggFunc::kSum:
        ++s.non_null[g];
        if (v.type() == DataType::kDouble) {
          s.sum[g].AddDouble(v.double_value());
        } else {
          s.sum[g].AddInt(v.int64_value());
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (!s.has_value[g] ||
            Improves(agg.func, v.TotalCompare(s.extreme[g]))) {
          s.extreme[g] = std::move(v);
          s.has_value[g] = 1;
        }
        break;
      default:
        break;
    }
    return Status::OK();
  }

  static Value Finalize(const AggItem& agg, const AggSlots& s, uint32_t g) {
    switch (agg.func) {
      case AggFunc::kCountStar:
        return Value::Int64(s.count[g]);
      case AggFunc::kCount:
        return Value::Int64(s.non_null[g]);
      case AggFunc::kSum:
        return s.non_null[g] == 0 ? Value::Null() : s.sum[g].Finalize();
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kMax1Row:
        return s.has_value[g] ? s.extreme[g] : Value::Null();
    }
    return Value::Null();
  }

  std::vector<AggItem> aggs_;
  bool scalar_;
  /// Per aggregate: folded by a scatter loop (see the constructor), else
  /// per row; any_per_row_ when some aggregate is not.
  std::vector<bool> scatter_;
  bool any_per_row_ = false;
  int worker_;
  std::shared_ptr<SharedAggState> shared_;
  std::vector<int> group_slots_;
  std::vector<Evaluator> arg_evals_;
  /// Columnar argument evaluators, index-aligned with arg_evals_ (null for
  /// count(*)); consulted only on the columnar drain.
  std::vector<std::unique_ptr<ColumnarEvaluator>> cargs_;
  /// This operator's groups: dense group ids in first-arrival order, which
  /// is the deterministic emission order.
  AggTable table_;
  /// Emission source: table_ (serial) or the shared merged result
  /// (parallel, worker 0). Non-emitters produce no rows.
  bool emitter_ = true;
  const AggTable* emit_ = &table_;
  size_t emit_pos_ = 0;
  std::vector<Value> finals_;  // one emitted aggregate column, finalized
};

}  // namespace

PhysicalOpPtr MakeHashAggregateOp(PhysicalOpPtr child,
                                  std::vector<ColumnId> group_cols,
                                  std::vector<AggItem> aggs, bool scalar,
                                  SharedRegionStatePtr shared, int worker) {
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_cols),
                                           std::move(aggs), scalar,
                                           std::move(shared), worker);
}

SharedRegionStatePtr MakeSharedAggState(int workers) {
  return std::make_shared<SharedAggState>(workers);
}

}  // namespace orq
