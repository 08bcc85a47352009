#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/packed_key.h"
#include "exec/evaluator.h"
#include "exec/ops.h"
#include "exec/parallel.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// SUM over doubles accumulates in quad precision so the rounded double
/// result is independent of summation order: with a 113-bit mantissa the
/// accumulated rounding error (~N * 2^-113) sits far below double's
/// rounding granularity, so serial, cached, and any morsel partitioning
/// of the same input produce bit-identical sums. Without this, a query
/// comparing one aggregate against a recomputation of itself (TPC-H Q15's
/// total_revenue = max(total_revenue)) silently loses rows whenever the
/// two plans associate the additions differently.
#if defined(__SIZEOF_FLOAT128__)
using SumAccum = __float128;
#else
using SumAccum = long double;
#endif

/// One accumulator per (group, aggregate).
struct Accumulator {
  int64_t count = 0;          // rows seen (count(*), Max1Row guard)
  int64_t non_null = 0;       // non-NULL inputs (count(x))
  SumAccum sum_double = 0.0;
  int64_t sum_int = 0;
  bool sum_is_double = false;
  Value extreme;              // min/max/Max1Row value
  bool has_value = false;
  std::unordered_set<Row, RowHash, RowGroupEq> distinct;  // distinct inputs
};

/// Folds a worker's partial accumulator into the merged one. Additive
/// counters add; min/max keep the better extreme. DISTINCT and Max1Row
/// aggregates never reach here — the plan builder excludes them from
/// parallel regions (their merge is not a simple fold).
void MergeAccumulator(const AggItem& agg, Accumulator* into,
                      Accumulator&& from) {
  into->count += from.count;
  into->non_null += from.non_null;
  into->sum_int += from.sum_int;
  into->sum_double += from.sum_double;
  into->sum_is_double = into->sum_is_double || from.sum_is_double;
  if (from.has_value) {
    bool take = !into->has_value;
    if (!take) {
      const int cmp = from.extreme.TotalCompare(into->extreme);
      take = (agg.func == AggFunc::kMin && cmp < 0) ||
             (agg.func == AggFunc::kMax && cmp > 0);
    }
    if (take) {
      into->extreme = std::move(from.extreme);
      into->has_value = true;
    }
  }
}

/// One worker's fully aggregated local state, in insertion order:
/// keys[g] is group g's key row, accs[g] its accumulators.
struct AggPartial {
  std::vector<Row> keys;
  std::vector<std::vector<Accumulator>> accs;
};

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
    for (AggPartial& partial : partials_) partial = AggPartial{};
    groups_.clear();
    accs_.clear();
    order_.clear();
  }

  /// Blocks until all workers deposited and the merge completed; returns
  /// the first deposited error. `aggs` describes the accumulator fold and
  /// is identical across workers.
  Status Deposit(int worker, const Status& drain, AggPartial partial,
                 const std::vector<AggItem>& aggs) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain.ok() && status_.ok()) status_ = drain;
    partials_[static_cast<size_t>(worker)] = std::move(partial);
    if (++deposited_ == workers_) {
      if (status_.ok()) Merge(aggs);
      merge_done_ = true;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return merge_done_; });
    }
    return status_;
  }

  /// Merged result, valid after Deposit returned OK; read-only thereafter.
  const std::vector<const Row*>& order() const { return order_; }
  const std::vector<std::vector<Accumulator>>& accs() const { return accs_; }

 private:
  /// Runs under mu_ on the last depositor's thread. Worker order fixes the
  /// merged emission order deterministically (worker 0's groups first, in
  /// its insertion order, then worker 1's new groups, ...).
  void Merge(const std::vector<AggItem>& aggs) {
    for (AggPartial& partial : partials_) {
      for (size_t g = 0; g < partial.keys.size(); ++g) {
        auto it = groups_.find(partial.keys[g]);
        if (it == groups_.end()) {
          it = groups_
                   .emplace(PackedKey(std::move(partial.keys[g])),
                            static_cast<uint32_t>(accs_.size()))
                   .first;
          accs_.push_back(std::move(partial.accs[g]));
          order_.push_back(&it->first.values);
          continue;
        }
        std::vector<Accumulator>& into = accs_[it->second];
        for (size_t i = 0; i < aggs.size(); ++i) {
          MergeAccumulator(aggs[i], &into[i], std::move(partial.accs[g][i]));
        }
      }
      partial = AggPartial{};
    }
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int deposited_ = 0;
  bool merge_done_ = false;
  Status status_;
  std::vector<AggPartial> partials_;
  std::unordered_map<PackedKey, uint32_t, PackedKeyHash, PackedKeyEq> groups_;
  std::vector<std::vector<Accumulator>> accs_;
  std::vector<const Row*> order_;
};

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
    fast_aggs_ = true;
    for (const AggItem& agg : aggs_) {
      layout_.push_back(agg.output);
      arg_evals_.emplace_back(
          agg.arg != nullptr ? Evaluator(agg.arg, in) : Evaluator());
      cargs_.emplace_back(nullptr);
      if (agg.arg != nullptr) {
        cargs_.back() = std::make_unique<ColumnarEvaluator>();
        cargs_.back()->Compile(agg.arg, in);
      }
      // Range accumulation handles exactly the fold-style aggregates whose
      // per-row updates commute into one per-range update: COUNT/SUM/MIN/
      // MAX without DISTINCT, arguments fully vectorized (so no per-row
      // evaluation errors can reorder). Max1Row stays per-row for its
      // cardinality check.
      const bool fast_func =
          agg.func == AggFunc::kCountStar || agg.func == AggFunc::kCount ||
          agg.func == AggFunc::kSum || agg.func == AggFunc::kMin ||
          agg.func == AggFunc::kMax;
      if (!fast_func || agg.distinct ||
          (agg.arg != nullptr && !cargs_.back()->vectorizable())) {
        fast_aggs_ = false;
      }
    }
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    groups_.clear();
    accs_.clear();
    order_.clear();
    emit_pos_ = 0;
    if (shared_ == nullptr) {
      ORQ_RETURN_IF_ERROR(DrainInput(ctx));
      emitter_ = true;
      emit_order_ = &order_;
      emit_accs_ = &accs_;
      RecordPeak(static_cast<int64_t>(groups_.size()));
      if (MetricsRegistry* m = metrics()) {
        m->Add(MetricCounter::kHashAggGroups,
               static_cast<int64_t>(groups_.size()));
      }
      return Status::OK();
    }
    // Parallel: aggregate this worker's share locally, then hand the
    // partial to the merge barrier (errors ride along so the gang never
    // stalls). Worker 0 emits the merged groups; the rest emit nothing.
    Status drain = DrainInput(ctx);
    AggPartial partial;
    if (drain.ok()) {
      partial.keys.reserve(order_.size());
      for (const Row* key : order_) partial.keys.push_back(*key);
      partial.accs = std::move(accs_);
    }
    Status status = shared_->Deposit(worker_, drain, std::move(partial),
                                     aggs_);
    groups_.clear();
    accs_.clear();
    order_.clear();
    if (!status.ok()) return status;
    emitter_ = (worker_ == 0);
    emit_order_ = &shared_->order();
    emit_accs_ = &shared_->accs();
    if (emitter_) {
      RecordPeak(static_cast<int64_t>(emit_order_->size()));
      if (MetricsRegistry* m = metrics()) {
        m->Add(MetricCounter::kHashAggGroups,
               static_cast<int64_t>(emit_order_->size()));
      }
    }
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (!emitter_) return false;
    if (scalar_ && emit_order_->empty()) {
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
    if (emit_pos_ >= emit_order_->size()) return false;
    *row = *(*emit_order_)[emit_pos_];
    const std::vector<Accumulator>& accs = (*emit_accs_)[emit_pos_++];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      row->push_back(Finalize(aggs_[i], accs[i]));
    }
    return true;
  }

  /// Columnar emission: each output column is built straight from a
  /// window of group keys / finalized accumulators, with no intermediate
  /// row. The scalar aggregate's one empty-input row goes through the row
  /// adapter.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    if (!emitter_) return Status::OK();
    if (scalar_ && emit_order_->empty()) return FillColumnsFromRows(ctx, out);
    const size_t begin = emit_pos_;
    const uint32_t n = static_cast<uint32_t>(std::min(
        emit_order_->size() - begin, static_cast<size_t>(out->capacity())));
    if (n == 0) return Status::OK();
    const size_t num_keys = group_slots_.size();
    out->ResizeCols(layout_.size());
    for (size_t k = 0; k < num_keys; ++k) {
      ColumnVec& col = out->col(k);
      col.StartBuild((*(*emit_order_)[begin])[k].type(), n);
      for (uint32_t g = 0; g < n; ++g) {
        col.AppendValue((*(*emit_order_)[begin + g])[k]);
      }
      col.Seal();
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      ColumnVec& col = out->col(num_keys + i);
      for (uint32_t g = 0; g < n; ++g) {
        Value v = Finalize(aggs_[i], (*emit_accs_)[begin + g][i]);
        if (g == 0) col.StartBuild(v.type(), n);
        col.AppendValue(v);
      }
      col.Seal();
    }
    out->set_num_rows(n);
    emit_pos_ += n;
    return Status::OK();
  }

  void CloseImpl() override {
    groups_.clear();
    accs_.clear();
    order_.clear();
    // Merged shared state is released by the exchange's Close; emit
    // pointers are re-established on the next Open.
    emit_order_ = &order_;
    emit_accs_ = &accs_;
  }

  std::string name() const override {
    if (scalar_) return "ScalarAggregate";
    return "HashAggregate";
  }

 private:
  /// Drains the child into the local group map. Group keys probe a
  /// packed-key map (hash computed once per probe, key values copied only
  /// on a new group) that indexes dense per-group accumulator storage.
  Status DrainInput(ExecContext* ctx) {
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    Status status = ctx->batched ? DrainColumnar(ctx) : DrainRowwise(ctx);
    children_[0]->Close();
    if (!status.ok()) return status;
    if (MetricsRegistry* m = metrics()) {
      // Occupied-bucket chain lengths at build end — the collision shape a
      // probe walks (hash quality + load factor in one distribution).
      for (size_t b = 0; b < groups_.bucket_count(); ++b) {
        const int64_t chain = static_cast<int64_t>(groups_.bucket_size(b));
        if (chain > 0) m->Observe(MetricHistogram::kHashAggBucketChain, chain);
      }
    }
    return Status::OK();
  }

  /// Row-mode drain: one Next per input row.
  Status DrainRowwise(ExecContext* ctx) {
    Row key(group_slots_.size());
    MetricsRegistry* m = metrics();
    return DrainRows(children_[0].get(), ctx, [&](const Row& row) -> Status {
      if (m != nullptr) m->Add(MetricCounter::kHashAggInputRows, 1);
      for (size_t i = 0; i < group_slots_.size(); ++i) {
        key[i] = row[group_slots_[i]];
      }
      auto it = groups_.find(key);
      if (it == groups_.end()) {
        it = groups_
                 .emplace(PackedKey(std::move(key)),
                          static_cast<uint32_t>(accs_.size()))
                 .first;
        key = Row(group_slots_.size());
        accs_.emplace_back(aggs_.size());
        order_.push_back(&it->first.values);
      }
      return Accumulate(&accs_[it->second], row, ctx);
    });
  }

  /// Columnar drain: group-key hashes are computed column-wise for the
  /// whole batch, probes go through ColumnKeyRef (no key decode unless a
  /// new group inserts), and accumulator updates read the typed arrays
  /// directly. Aggregate arguments evaluate vectorized when possible;
  /// otherwise the row is decoded once and shared by all fallback args.
  Status DrainColumnar(ExecContext* ctx) {
    ColumnBatch batch(ctx->batch_size);
    std::vector<size_t> hashes;
    std::vector<const ColumnVec*> arg_cols(aggs_.size(), nullptr);
    std::vector<const ColumnVec*> key_cols(group_slots_.size(), nullptr);
    Row key(group_slots_.size());
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
          ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                               cargs_[i]->Eval(batch, ctx));
          arg_cols[i] = c;
        }
      }
      InitKeyHashes(batch, &hashes);
      for (size_t k = 0; k < group_slots_.size(); ++k) {
        key_cols[k] = &batch.col(group_slots_[k]);
        HashCombineColumn(batch, *key_cols[k], &hashes);
      }
      // Segment the live rows into maximal group-constant ranges and probe
      // the group table once per range. Clustered inputs (sorted tables,
      // RLE runs) collapse to a handful of probes per batch; a scalar
      // aggregate is one range. The hash-equal prefilter is exact in one
      // direction — group-equal rows always hash equal — so ranges never
      // split a group run.
      uint32_t j = 0;
      while (j < live) {
        uint32_t j_end = j + 1;
        if (group_slots_.empty()) {
          j_end = live;
        } else {
          while (j_end < live && hashes[j_end] == hashes[j] &&
                 SameGroup(batch, batch.RowAt(j), batch.RowAt(j_end))) {
            ++j_end;
          }
        }
        const uint32_t r = batch.RowAt(j);
        const ColumnKeyRef ref{key_cols.data(), key_cols.size(), r,
                               hashes[j]};
        auto it = groups_.find(ref);
        if (it == groups_.end()) {
          for (size_t k = 0; k < group_slots_.size(); ++k) {
            key[k] = batch.col(group_slots_[k]).GetValue(r);
          }
          it = groups_
                   .emplace(PackedKey(std::move(key)),
                            static_cast<uint32_t>(accs_.size()))
                   .first;
          key = Row(group_slots_.size());
          accs_.emplace_back(aggs_.size());
          order_.push_back(&it->first.values);
        }
        if (fast_aggs_) {
          AccumulateRange(&accs_[it->second], batch, j, j_end, arg_cols);
        } else {
          for (uint32_t jj = j; jj < j_end; ++jj) {
            ORQ_RETURN_IF_ERROR(
                AccumulateColumnar(&accs_[it->second], batch, batch.RowAt(jj),
                                   arg_cols, &decode_row, ctx));
          }
        }
        j = j_end;
      }
    }
    return Status::OK();
  }

  /// Group equality of two live rows, column-wise. Dictionary columns
  /// compare codes (entries are distinct by construction); everything else
  /// goes through the shared ref comparison, so NULLs and cross-rep
  /// numerics group exactly like PackedKeyEq.
  bool SameGroup(const ColumnBatch& batch, uint32_t a, uint32_t b) const {
    for (int slot : group_slots_) {
      const ColumnVec& c = batch.col(slot);
      if (c.enc() == ColumnEnc::kDict) {
        const bool na = c.IsNull(a);
        if (na != c.IsNull(b)) return false;
        if (!na && c.codes()[a] != c.codes()[b]) return false;
        continue;
      }
      if (!GroupEqualsRefs(LoadElem(c, a), LoadElem(c, b))) return false;
    }
    return true;
  }

  /// Vectorized accumulation of one group-constant range [j0, j1): every
  /// accumulator is updated once per range with a locally reduced value
  /// instead of once per row. Only runs when fast_aggs_ (COUNT/SUM/MIN/MAX,
  /// no DISTINCT, vectorized args), so no per-row error site is skipped.
  /// Summation stays order-compatible with the per-row path: int64 partial
  /// sums are associative mod 2^64 (accumulated unsigned), and double
  /// partials reduce in SumAccum where a whole batch of exact additions
  /// stays below the quad mantissa — the same associativity contract the
  /// parallel merge already relies on.
  void AccumulateRange(std::vector<Accumulator>* accs,
                       const ColumnBatch& batch, uint32_t j0, uint32_t j1,
                       const std::vector<const ColumnVec*>& arg_cols) {
    const int64_t k = static_cast<int64_t>(j1 - j0);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggItem& agg = aggs_[i];
      Accumulator& acc = (*accs)[i];
      acc.count += k;
      if (agg.func == AggFunc::kCountStar) continue;
      const ColumnVec& col = *arg_cols[i];
      if (agg.func == AggFunc::kSum && col.enc() == ColumnEnc::kRle &&
          !batch.has_selection() &&
          (col.rep() == ColumnRep::kInts ||
           col.rep() == ColumnRep::kDoubles)) {
        AccumulateRleSum(&acc, col, j0, j1);
        continue;
      }
      switch (agg.func) {
        case AggFunc::kCount: {
          if (!col.has_nulls()) {
            acc.non_null += k;
            break;
          }
          int64_t nn = 0;
          for (uint32_t j = j0; j < j1; ++j) {
            nn += col.IsNull(batch.RowAt(j)) ? 0 : 1;
          }
          acc.non_null += nn;
          break;
        }
        case AggFunc::kSum: {
          if (col.rep() == ColumnRep::kInts) {
            uint64_t s = 0;
            int64_t nn = 0;
            for (uint32_t j = j0; j < j1; ++j) {
              const uint32_t r = batch.RowAt(j);
              if (col.IsNull(r)) continue;
              s += static_cast<uint64_t>(col.IntAt(r));
              ++nn;
            }
            acc.sum_int = static_cast<int64_t>(
                static_cast<uint64_t>(acc.sum_int) + s);
            acc.non_null += nn;
          } else if (col.rep() == ColumnRep::kDoubles) {
            SumAccum s = 0.0;
            int64_t nn = 0;
            for (uint32_t j = j0; j < j1; ++j) {
              const uint32_t r = batch.RowAt(j);
              if (col.IsNull(r)) continue;
              s += static_cast<SumAccum>(col.DoubleAt(r));
              ++nn;
            }
            if (nn > 0) {
              acc.sum_is_double = true;
              acc.sum_double += s;
              acc.non_null += nn;
            }
          } else if (col.rep() == ColumnRep::kValues) {
            for (uint32_t j = j0; j < j1; ++j) {
              const uint32_t r = batch.RowAt(j);
              const Value& sv = col.ValAt(r);
              if (sv.is_null()) continue;
              ++acc.non_null;
              if (sv.type() == DataType::kDouble) {
                acc.sum_is_double = true;
                acc.sum_double += sv.double_value();
              } else {
                acc.sum_int += sv.int64_value();
              }
            }
          } else {
            // Strings sum to nothing (Value::int64_value() of a string is
            // 0) but still count as non-NULL inputs, like the row path.
            for (uint32_t j = j0; j < j1; ++j) {
              acc.non_null += col.IsNull(batch.RowAt(j)) ? 0 : 1;
            }
          }
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const bool min = agg.func == AggFunc::kMin;
          bool have = false;
          uint32_t best = 0;
          ElemRef best_ref{};
          int64_t nn = 0;
          for (uint32_t j = j0; j < j1; ++j) {
            const uint32_t r = batch.RowAt(j);
            if (col.IsNull(r)) continue;
            ++nn;
            ElemRef e = LoadElem(col, r);
            if (!have) {
              have = true;
              best = r;
              best_ref = e;
              continue;
            }
            const int cmp = TotalCompareRefs(e, best_ref);
            if (min ? cmp < 0 : cmp > 0) {
              best = r;
              best_ref = e;
            }
          }
          acc.non_null += nn;
          if (have) {
            bool take = !acc.has_value;
            if (!take) {
              const int cmp =
                  TotalCompareRefs(best_ref, LoadValue(acc.extreme));
              take = min ? cmp < 0 : cmp > 0;
            }
            if (take) {
              acc.extreme = col.GetValue(best);
              acc.has_value = true;
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }

  /// SUM over a contiguous row range of an RLE column: per overlapped run,
  /// one multiply replaces run-length additions. Products are exact — the
  /// int path reduces mod 2^64 like repeated addition, and a double times
  /// a batch-bounded count fits the SumAccum mantissa exactly.
  static void AccumulateRleSum(Accumulator* acc, const ColumnVec& col,
                               uint32_t r0, uint32_t r1) {
    uint32_t r = r0;
    uint64_t si = 0;
    SumAccum sd = 0.0;
    int64_t nn = 0;
    const bool ints = col.rep() == ColumnRep::kInts;
    while (r < r1) {
      const uint32_t run = col.RunOf(r);
      const uint32_t end = std::min(col.RunEndRow(run), r1);
      const uint32_t n = end - r;
      if (col.run_nulls() == nullptr || col.run_nulls()[run] == 0) {
        nn += n;
        if (ints) {
          si += static_cast<uint64_t>(n) *
                static_cast<uint64_t>(col.ints()[run]);
        } else {
          sd += static_cast<SumAccum>(col.doubles()[run]) *
                static_cast<SumAccum>(n);
        }
      }
      r = end;
    }
    if (ints) {
      acc->sum_int =
          static_cast<int64_t>(static_cast<uint64_t>(acc->sum_int) + si);
      acc->non_null += nn;
    } else if (nn > 0) {
      acc->sum_is_double = true;
      acc->sum_double += sd;
      acc->non_null += nn;
    }
  }

  /// Columnar twin of Accumulate: identical per-row semantics, but typed
  /// reads from the argument columns replace boxed Values on the hot
  /// SUM/COUNT/MIN/MAX paths.
  Status AccumulateColumnar(std::vector<Accumulator>* accs,
                            const ColumnBatch& batch, uint32_t r,
                            const std::vector<const ColumnVec*>& arg_cols,
                            Row* decode_row, ExecContext* ctx) {
    bool decoded = false;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggItem& agg = aggs_[i];
      Accumulator& acc = (*accs)[i];
      ++acc.count;
      if (agg.func == AggFunc::kMax1Row && acc.count > 1) {
        return Status::CardinalityViolation(
            "scalar subquery returned more than one row");
      }
      if (agg.func == AggFunc::kCountStar) continue;
      const ColumnVec* col = arg_cols[i];
      Value v;
      bool boxed = false;
      if (col == nullptr) {
        if (!decoded) {
          batch.DecodeRow(r, decode_row);
          decoded = true;
        }
        ORQ_ASSIGN_OR_RETURN(v, arg_evals_[i].Eval(*decode_row, ctx));
        boxed = true;
      }
      if (agg.func == AggFunc::kMax1Row) {
        acc.extreme = boxed ? std::move(v) : col->GetValue(r);
        acc.has_value = true;
        continue;
      }
      if (boxed ? v.is_null() : col->IsNull(r)) continue;
      if (agg.distinct) {
        if (!boxed) {
          v = col->GetValue(r);
          boxed = true;
        }
        if (!acc.distinct.insert(Row{v}).second) continue;
      }
      ++acc.non_null;
      switch (agg.func) {
        case AggFunc::kCount:
          break;
        case AggFunc::kSum:
          if (boxed || col->rep() == ColumnRep::kValues) {
            const Value& sv = boxed ? v : col->ValAt(r);
            if (sv.type() == DataType::kDouble) {
              acc.sum_is_double = true;
              acc.sum_double += sv.double_value();
            } else {
              acc.sum_int += sv.int64_value();
            }
          } else if (col->rep() == ColumnRep::kDoubles) {
            acc.sum_is_double = true;
            acc.sum_double += col->DoubleAt(r);
          } else if (col->rep() == ColumnRep::kInts) {
            acc.sum_int += col->IntAt(r);
          }
          // kStrings: Value::int64_value() of a string is 0 — add nothing,
          // exactly like the row path.
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          bool take = !acc.has_value;
          if (!take) {
            const int cmp =
                boxed ? v.TotalCompare(acc.extreme)
                      : TotalCompareRefs(LoadElem(*col, r),
                                         LoadValue(acc.extreme));
            take = (agg.func == AggFunc::kMin && cmp < 0) ||
                   (agg.func == AggFunc::kMax && cmp > 0);
          }
          if (take) {
            acc.extreme = boxed ? std::move(v) : col->GetValue(r);
            acc.has_value = true;
          }
          break;
        }
        default:
          break;
      }
    }
    return Status::OK();
  }

  Status Accumulate(std::vector<Accumulator>* accs, const Row& row,
                    ExecContext* ctx) {
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggItem& agg = aggs_[i];
      Accumulator& acc = (*accs)[i];
      ++acc.count;
      if (agg.func == AggFunc::kMax1Row && acc.count > 1) {
        return Status::CardinalityViolation(
            "scalar subquery returned more than one row");
      }
      if (agg.func == AggFunc::kCountStar) continue;
      ORQ_ASSIGN_OR_RETURN(Value v, arg_evals_[i].Eval(row, ctx));
      if (agg.func == AggFunc::kMax1Row) {
        acc.extreme = std::move(v);
        acc.has_value = true;
        continue;
      }
      if (v.is_null()) continue;
      if (agg.distinct && !acc.distinct.insert(Row{v}).second) continue;
      ++acc.non_null;
      switch (agg.func) {
        case AggFunc::kCount:
          break;
        case AggFunc::kSum:
          if (v.type() == DataType::kDouble) {
            acc.sum_is_double = true;
            acc.sum_double += v.double_value();
          } else {
            acc.sum_int += v.int64_value();
          }
          break;
        case AggFunc::kMin:
          if (!acc.has_value || v.TotalCompare(acc.extreme) < 0) {
            acc.extreme = std::move(v);
            acc.has_value = true;
          }
          break;
        case AggFunc::kMax:
          if (!acc.has_value || v.TotalCompare(acc.extreme) > 0) {
            acc.extreme = std::move(v);
            acc.has_value = true;
          }
          break;
        default:
          break;
      }
    }
    return Status::OK();
  }

  static Value Finalize(const AggItem& agg, const Accumulator& acc) {
    switch (agg.func) {
      case AggFunc::kCountStar:
        return Value::Int64(acc.count);
      case AggFunc::kCount:
        return Value::Int64(acc.non_null);
      case AggFunc::kSum:
        if (acc.non_null == 0) return Value::Null();
        if (acc.sum_is_double) {
          return Value::Double(static_cast<double>(
              acc.sum_double + static_cast<SumAccum>(acc.sum_int)));
        }
        return Value::Int64(acc.sum_int);
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kMax1Row:
        return acc.has_value ? acc.extreme : Value::Null();
    }
    return Value::Null();
  }

  std::vector<AggItem> aggs_;
  bool scalar_;
  /// True when every aggregate is range-foldable (see the constructor):
  /// the columnar drain then updates accumulators once per group-constant
  /// range instead of once per row.
  bool fast_aggs_ = false;
  int worker_;
  std::shared_ptr<SharedAggState> shared_;
  std::vector<int> group_slots_;
  std::vector<Evaluator> arg_evals_;
  /// Columnar argument evaluators, index-aligned with arg_evals_ (null for
  /// count(*)); consulted only on the columnar drain.
  std::vector<std::unique_ptr<ColumnarEvaluator>> cargs_;
  /// Group index: packed key -> dense accumulator slot. Accumulators live
  /// contiguously in accs_; order_ pins insertion order for deterministic
  /// emission (key rows are node-stable in the unordered_map).
  std::unordered_map<PackedKey, uint32_t, PackedKeyHash, PackedKeyEq> groups_;
  std::vector<std::vector<Accumulator>> accs_;
  std::vector<const Row*> order_;  // deterministic emit order
  /// Emission source: the local containers (serial) or the shared merged
  /// result (parallel, worker 0). Non-emitters produce no rows.
  bool emitter_ = true;
  const std::vector<const Row*>* emit_order_ = &order_;
  const std::vector<std::vector<Accumulator>>* emit_accs_ = &accs_;
  size_t emit_pos_ = 0;
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
