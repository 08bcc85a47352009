#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>

#include "algebra/expr_util.h"
#include "common/key_table.h"
#include "exec/evaluator.h"
#include "exec/key_columns.h"
#include "exec/ops.h"
#include "exec/parallel.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

std::vector<ColumnId> CombinedLayout(const std::vector<ColumnId>& left,
                                     const std::vector<ColumnId>& right,
                                     PhysJoinKind kind) {
  std::vector<ColumnId> layout = left;
  if (kind == PhysJoinKind::kInner || kind == PhysJoinKind::kLeftOuter) {
    layout.insert(layout.end(), right.begin(), right.end());
  }
  return layout;
}

/// NULL-pad types for the non-preserved side of a left outer join. The plan
/// builder passes the right layout's declared column types; direct
/// construction (tests) may omit them, falling back to kInt64.
std::vector<DataType> ResolvePadTypes(std::vector<DataType> right_types,
                                      size_t right_width) {
  if (right_types.size() != right_width) {
    right_types.assign(right_width, DataType::kInt64);
  }
  return right_types;
}

/// Nested-loops join; doubles as the Apply operator when `rebind_inner` is
/// set (per-outer-row parameter binding + inner re-open).
class NLJoinOp : public PhysicalOp {
 public:
  NLJoinOp(PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
           ScalarExprPtr predicate, bool rebind_inner,
           std::vector<DataType> right_types, bool cache_inner)
      : kind_(kind),
        rebind_inner_(rebind_inner),
        cache_inner_(cache_inner && !rebind_inner),
        pad_types_(
            ResolvePadTypes(std::move(right_types), right->layout().size())) {
    layout_ = CombinedLayout(left->layout(), right->layout(), kind);
    std::vector<ColumnId> pred_layout = left->layout();
    pred_layout.insert(pred_layout.end(), right->layout().begin(),
                       right->layout().end());
    predicate_ = Evaluator(std::move(predicate), pred_layout);
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  Status OpenImpl(ExecContext* ctx) override {
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    have_left_ = false;
    inner_open_ = false;
    outer_columnar_ = false;
    outer_pos_ = 0;
    if (outer_ != nullptr) outer_->Clear();
    if (rebind_inner_) return Status::OK();
    if (cache_inner_ && inner_cached_) {
      // Uncorrelated inner re-opened (e.g. under an outer Apply or a
      // SegmentApply): replay the spool instead of re-executing the
      // subtree — its result cannot have changed.
      if (MetricsRegistry* m = metrics()) {
        m->Add(MetricCounter::kInnerCacheReplays, 1);
      }
      return Status::OK();
    }
    // Uncorrelated: materialize the inner once.
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    inner_rows_.clear();
    Status drain = DrainRows(children_[1].get(), ctx, [this](Row& row) {
      inner_rows_.push_back(std::move(row));
      return Status::OK();
    });
    children_[1]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    RecordPeak(static_cast<int64_t>(inner_rows_.size()));
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kSpoolRows,
             static_cast<int64_t>(inner_rows_.size()));
    }
    inner_cached_ = cache_inner_;
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (true) {
      if (!have_left_) {
        ORQ_ASSIGN_OR_RETURN(bool more, NextOuter(ctx));
        if (!more) return false;
        have_left_ = true;
        matched_ = false;
        inner_pos_ = 0;
        if (rebind_inner_) {
          const std::vector<ColumnId>& lcols = children_[0]->layout();
          for (size_t i = 0; i < lcols.size(); ++i) {
            ctx->params[lcols[i]] = left_row_[i];
          }
          if (inner_open_) children_[1]->Close();
          ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
          inner_open_ = true;
          if (MetricsRegistry* m = metrics()) {
            m->Add(MetricCounter::kApplyInnerOpens, 1);
          }
        }
      }
      // Fetch the next inner row: one Next on the re-opened correlated
      // inner (per-row pulls, so a semi/anti join stops the inner at its
      // first match), or the next spooled row.
      const Row* inner = nullptr;
      if (rebind_inner_) {
        ORQ_ASSIGN_OR_RETURN(bool more, children_[1]->Next(ctx, &inner_row_));
        if (more) inner = &inner_row_;
      } else if (inner_pos_ < inner_rows_.size()) {
        inner = &inner_rows_[inner_pos_++];
      }
      if (inner == nullptr) {
        have_left_ = false;
        if (!matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                          kind_ == PhysJoinKind::kLeftAnti)) {
          *row = left_row_;
          if (kind_ == PhysJoinKind::kLeftOuter) {
            for (DataType type : pad_types_) row->push_back(Value::Null(type));
          }
          return true;
        }
        continue;
      }
      // Compose the combined row in place in the output row and evaluate
      // the predicate on it; a rejected row is simply overwritten.
      row->assign(left_row_.begin(), left_row_.end());
      row->insert(row->end(), inner->begin(), inner->end());
      ORQ_ASSIGN_OR_RETURN(bool keep, predicate_.EvalPredicate(*row, ctx));
      if (!keep) continue;
      matched_ = true;
      switch (kind_) {
        case PhysJoinKind::kInner:
        case PhysJoinKind::kLeftOuter:
          return true;
        case PhysJoinKind::kLeftSemi:
          row->resize(left_row_.size());  // one match suffices
          have_left_ = false;
          return true;
        case PhysJoinKind::kLeftAnti:
          have_left_ = false;  // disqualified
          continue;
      }
    }
  }

  /// Columnar pull: the outer input is pulled in column batches (so the
  /// outer subtree runs columnar) and decoded one row at a time; the join
  /// itself — spool loop or per-row inner re-open — is NextImpl's, and its
  /// output rows are transposed into the batch.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* batch) override {
    outer_columnar_ = true;
    return FillColumnsFromRows(ctx, batch);
  }

  void CloseImpl() override {
    children_[0]->Close();
    if (inner_open_) {
      children_[1]->Close();
      inner_open_ = false;
    }
    // A caching spool survives Close for replay on the next Open.
    if (!cache_inner_) inner_rows_.clear();
  }

  std::string name() const override {
    std::string kind;
    switch (kind_) {
      case PhysJoinKind::kInner: kind = "inner"; break;
      case PhysJoinKind::kLeftOuter: kind = "leftouter"; break;
      case PhysJoinKind::kLeftSemi: kind = "semi"; break;
      case PhysJoinKind::kLeftAnti: kind = "anti"; break;
    }
    return (rebind_inner_ ? "Apply(" : "NestedLoopsJoin(") + kind + ")";
  }

 private:
  /// Fetches the next outer row into left_row_ in this Open's protocol:
  /// one Next, or one decoded row of the current outer column batch.
  Result<bool> NextOuter(ExecContext* ctx) {
    if (!outer_columnar_) return children_[0]->Next(ctx, &left_row_);
    if (outer_ == nullptr) {
      outer_ = std::make_unique<ColumnBatch>(ctx->batch_size);
    }
    if (outer_pos_ >= outer_->selected()) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, outer_.get()));
      if (outer_->selected() == 0) return false;
      outer_pos_ = 0;
    }
    outer_->DecodeRow(outer_->RowAt(outer_pos_++), &left_row_);
    return true;
  }

  PhysJoinKind kind_;
  bool rebind_inner_;
  bool cache_inner_;
  std::vector<DataType> pad_types_;
  Evaluator predicate_;
  Row left_row_;    // current outer row
  Row inner_row_;   // current correlated-inner row
  bool have_left_ = false;
  bool matched_ = false;
  bool inner_open_ = false;
  std::vector<Row> inner_rows_;  // uncorrelated inner materialization
  bool inner_cached_ = false;    // inner_rows_ valid across Open cycles
  size_t inner_pos_ = 0;
  /// Columnar outer input (NextColumnsImpl): set per Open on the first
  /// columnar pull; the batch is allocated once and reused.
  bool outer_columnar_ = false;
  std::unique_ptr<ColumnBatch> outer_;
  uint32_t outer_pos_ = 0;
};

/// Comparison classes of SQL `=`: values of one class compare, values of
/// two classes compare as unknown (NULL). The null-aware anti join notes
/// which classes its build keys span.
uint8_t CompareClass(DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kDouble: return 1;
    case DataType::kBool: return 2;
    case DataType::kString: return 4;
    case DataType::kDate: return 8;
  }
  return 0;
}

/// Narrows `batch`'s selection in place to the live rows for which
/// keep(j, r) holds, r = RowAt(j); a dense batch that keeps every row
/// stays dense.
template <typename Keep>
void NarrowSelection(ColumnBatch* batch, Keep keep) {
  const uint32_t m = batch->selected();
  if (!batch->has_selection()) {
    std::vector<uint32_t>* sel = batch->MutableSelection();
    sel->clear();
    for (uint32_t j = 0; j < m; ++j) {
      if (keep(j, j)) sel->push_back(j);
    }
    if (sel->size() == m) batch->ClearSelection();
    return;
  }
  std::vector<uint32_t>& sel = *batch->MutableSelection();
  uint32_t w = 0;
  for (uint32_t j = 0; j < m; ++j) {
    const uint32_t r = sel[j];
    if (keep(j, r)) sel[w++] = r;
  }
  sel.resize(w);
}

/// A complete hash-join build product, column-major: build row i's
/// right-layout values are entry i of the typed payload columns, and the
/// key -> bucket-range lookup's slots are build row positions. Rows with a
/// NULL key never join and are left out, but noted for the null-aware anti
/// join. A serial build fills one; each parallel worker fills a partial
/// and the last depositor merges them into the one SharedJoinState holds.
struct BuildTable {
  /// Payload storage a Reset keeps for the next build; beyond it the
  /// columns give their memory back.
  static constexpr size_t kKeepPayloadBytes = size_t{1} << 20;

  KeyBuckets buckets;                 // slots are build row positions
  std::vector<TypedColumn> payload;   // right-layout columns, by build row
  std::vector<uint32_t> row_bucket;   // bucket id by build row, until Finish
  uint32_t rows = 0;                  // build rows stored
  bool null_key = false;              // some drained row had a NULL key

  /// Empties the table for keys of `key_width` columns and payload columns
  /// declared `types` (an all-NULL payload column reports its declared
  /// type, so outer-join padding stays typed).
  void Reset(size_t key_width, const std::vector<DataType>& types) {
    buckets.Reset(key_width);
    size_t bytes = 0;
    for (const TypedColumn& col : payload) bytes += col.MemoryBytes();
    if (bytes > kKeepPayloadBytes) std::vector<TypedColumn>().swap(payload);
    payload.resize(types.size());
    for (size_t k = 0; k < types.size(); ++k) payload[k].Clear(types[k]);
    row_bucket.clear();
    rows = 0;
    null_key = false;
  }

  /// Row path: one build row and its (non-NULL) key.
  void AddRow(const Row& key, const Row& row) {
    row_bucket.push_back(buckets.Add(key, RowHash{}(key)));
    ++rows;
    for (size_t k = 0; k < payload.size(); ++k) payload[k].AppendValue(row[k]);
  }

  /// Columnar path: every live row of `batch`, whose keys (all non-NULL)
  /// are `keys` with RowHash-compatible `hashes`; `ids` is scratch.
  void AddBatch(const ColumnBatch& batch, const ColumnVec* const* keys,
                const std::vector<size_t>& hashes,
                std::vector<uint32_t>* ids) {
    GroupIds(&buckets.keys, batch, keys, hashes, ids);
    for (uint32_t id : *ids) buckets.Count(id);
    row_bucket.insert(row_bucket.end(), ids->begin(), ids->end());
    rows += batch.selected();
    for (size_t k = 0; k < payload.size(); ++k) {
      AppendLiveRows(batch, batch.col(k), &payload[k]);
    }
  }

  /// OK, or why a key or payload append failed (TypedColumn::status).
  Status status() const {
    ORQ_RETURN_IF_ERROR(buckets.keys.status());
    for (const TypedColumn& col : payload) ORQ_RETURN_IF_ERROR(col.status());
    return Status::OK();
  }

  /// Appends the rows of `part` (same widths) after this table's.
  void Absorb(const BuildTable& part) {
    std::vector<uint32_t> id_map(part.buckets.keys.size());
    for (uint32_t id = 0; id < id_map.size(); ++id) {
      bool inserted = false;
      id_map[id] = buckets.keys.InsertFrom(part.buckets.keys, id, &inserted);
    }
    for (uint32_t bucket : part.row_bucket) {
      const uint32_t id = id_map[bucket];
      buckets.Count(id);
      row_bucket.push_back(id);
    }
    for (size_t k = 0; k < payload.size(); ++k) {
      payload[k].AppendFrom(part.payload[k]);
    }
    rows += part.rows;
    null_key = null_key || part.null_key;
  }

  /// Lays the buckets out over the build rows; the table is read-only
  /// afterwards.
  void Finish() {
    buckets.Scatter(row_bucket);
    std::vector<uint32_t>().swap(row_bucket);
  }

  /// Resident bytes: the slots permutation, the bucket ranges, the key
  /// table and the payload columns (string arenas included).
  size_t MemoryBytes() const {
    size_t bytes = buckets.slots.capacity() * sizeof(uint32_t) +
                   buckets.ranges.capacity() * sizeof(BucketRange) +
                   buckets.keys.MemoryBytes();
    for (const TypedColumn& col : payload) bytes += col.MemoryBytes();
    return bytes;
  }
};

/// Build-side rendezvous of a parallel hash join. Every worker drains its
/// morsel share of the build input into a private BuildTable partial, then
/// deposits it here; the last depositor merges all partials into one
/// BuildTable which every worker then probes read-only. Deposits happen
/// unconditionally — a worker whose drain failed deposits the error — so
/// the barrier always completes and no gang member is left waiting.
class SharedJoinState final : public SharedRegionState {
 public:
  explicit SharedJoinState(int workers)
      : workers_(workers), partials_(static_cast<size_t>(workers)) {}

  void Reset() override {
    std::lock_guard<std::mutex> lock(mu_);
    deposited_ = 0;
    merge_done_ = false;
    status_ = Status::OK();
    for (BuildTable& partial : partials_) partial = BuildTable();
    table_ = BuildTable();
  }

  /// Blocks until all workers deposited and the merge completed. Returns
  /// the shared table (same pointer for every worker) or the first
  /// deposited error. `*merged_here` is set for exactly one worker — the
  /// one that performed the merge — so table-wide stats are recorded once.
  Result<const BuildTable*> Deposit(int worker, const Status& drain,
                                    size_t key_width,
                                    const std::vector<DataType>& types,
                                    BuildTable partial, bool* merged_here) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain.ok() && status_.ok()) status_ = drain;
    partials_[static_cast<size_t>(worker)] = std::move(partial);
    *merged_here = false;
    if (++deposited_ == workers_) {
      if (status_.ok()) {
        Merge(key_width, types);
        status_ = table_.status();
        *merged_here = true;
      }
      merge_done_ = true;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return merge_done_; });
    }
    if (!status_.ok()) return status_;
    return &table_;
  }

 private:
  /// Runs under mu_ on the last depositor's thread; after merge_done_ the
  /// table is read-only, so probes need no lock.
  void Merge(size_t key_width, const std::vector<DataType>& types) {
    table_.Reset(key_width, types);
    for (BuildTable& partial : partials_) {
      table_.Absorb(partial);
      partial = BuildTable();
    }
    table_.Finish();
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int deposited_ = 0;
  bool merge_done_ = false;
  Status status_;
  std::vector<BuildTable> partials_;
  BuildTable table_;
};

std::string JoinKindName(PhysJoinKind kind) {
  switch (kind) {
    case PhysJoinKind::kInner: return "inner";
    case PhysJoinKind::kLeftOuter: return "leftouter";
    case PhysJoinKind::kLeftSemi: return "semi";
    case PhysJoinKind::kLeftAnti: return "anti";
  }
  return "inner";
}

/// The probe shared by HashJoinOp and IndexJoinOp. Each left row's key is
/// looked up in a KeyBuckets — a hash build, or a table's prebuilt index —
/// and joined with its bucket's rows under an optional residual over the
/// combined (left ++ right) layout. Subclasses supply the build side:
/// OpenBuild points buckets_ at the lookup; RightValue reads a build-row
/// value by slot (row path, per-row residual); GatherRight fills a typed
/// right column by slots.
///
/// The columnar probe looks a whole probe batch up at once — one bucket id
/// per live row (LookupBatch) — and then runs the join kind's own loop:
///   * semi and anti joins without a residual narrow the probe batch's
///     selection in place, the way Filter does (NextFiltered);
///   * inner and outer joins without a residual emit (probe row, slot)
///     pairs straight from the bucket ranges and gather them (NextPairs);
///   * a join with a residual enumerates (probe row, slot) candidates into
///     a window of up to one batch capacity, each probe row closed by a
///     row-end entry, and consumes the window in order under the kind's
///     semantics into the same pairs. A vectorizable residual is evaluated
///     for the whole window at once, over gathered candidate columns;
///     vectorizable expressions cannot fail, so evaluating candidates a
///     semi or anti join then skips is harmless. Any other residual runs
///     through the row Evaluator per candidate as the window is consumed,
///     so errors surface on exactly the candidates the row engine
///     evaluates. A bucket may straddle windows and output batches.
/// An empty build looks nothing up: the probe input is drained (its key
/// expressions still evaluated, so their errors still surface) without
/// hashing it.
///
/// A null-aware anti join (NOT IN, one key, no residual) also rejects a
/// probe row whose comparison with some build key is unknown: every row
/// when a build key is NULL, a NULL probe key, and a probe key of another
/// comparison class than a build key. An empty build passes every row.
class ProbeJoinOp : public PhysicalOp {
 public:
  Status OpenImpl(ExecContext* ctx) final {
    ORQ_RETURN_IF_ERROR(OpenBuild(ctx));
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    have_left_ = false;
    cjpos_ = 0;
    bucket_pos_ = 0;
    win_row_.clear();
    win_slot_.clear();
    win_pos_ = 0;
    row_matched_ = false;
    row_done_ = false;
    if (cin_ != nullptr) cin_->Clear();
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) final {
    while (true) {
      if (!have_left_) {
        ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, &left_row_));
        if (!more) return false;
        have_left_ = true;
        row_matched_ = false;
        ORQ_RETURN_IF_ERROR(LookupBucket(left_row_, ctx));
      }
      while (bucket_pos_ < bucket_size_) {
        const uint32_t slot = buckets_->slots[bucket_begin_ + bucket_pos_++];
        Row combined = left_row_;
        for (size_t k = 0; k < pad_types_.size(); ++k) {
          combined.push_back(RightValue(slot, k));
        }
        if (has_residual_) {
          ORQ_ASSIGN_OR_RETURN(bool keep,
                               residual_.EvalPredicate(combined, ctx));
          if (!keep) continue;
        }
        row_matched_ = true;
        switch (kind_) {
          case PhysJoinKind::kInner:
          case PhysJoinKind::kLeftOuter:
            *row = std::move(combined);
            return true;
          case PhysJoinKind::kLeftSemi:
            *row = left_row_;
            have_left_ = false;
            return true;
          case PhysJoinKind::kLeftAnti:
            have_left_ = false;
            break;
        }
        if (!have_left_) break;
      }
      if (!have_left_) continue;  // semi emitted via return; anti restarts
      // Bucket exhausted.
      have_left_ = false;
      if (!row_matched_ && PassesUnmatched() &&
          (!null_aware_ || NotInPasses(probe_key_[0]))) {
        *row = left_row_;
        if (kind_ == PhysJoinKind::kLeftOuter) {
          for (DataType type : pad_types_) {
            row->push_back(Value::Null(type));
          }
        }
        return true;
      }
    }
  }

  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) final {
    const bool filters = kind_ == PhysJoinKind::kLeftSemi ||
                         kind_ == PhysJoinKind::kLeftAnti;
    if (filters && !has_residual_) return NextFiltered(ctx, out);
    return NextPairs(ctx, out);
  }

  void CloseImpl() final {
    children_[0]->Close();
    CloseBuild();
    buckets_ = nullptr;
  }

 protected:
  /// Slot of a pad / probe-only output pair: gathers as NULL.
  static constexpr uint32_t kNoRight = ColumnVec::kNullRow;

  ProbeJoinOp(PhysJoinKind kind, PhysicalOpPtr left,
              const std::vector<ColumnId>& right_layout,
              std::vector<ScalarExprPtr> probe_keys, ScalarExprPtr residual,
              std::vector<DataType> right_types, bool null_aware)
      : kind_(kind),
        null_aware_(null_aware),
        pad_types_(ResolvePadTypes(std::move(right_types),
                                   right_layout.size())),
        left_width_(left->layout().size()) {
    layout_ = CombinedLayout(left->layout(), right_layout, kind);
    for (ScalarExprPtr& key : probe_keys) {
      probe_keys_.push_back(std::make_unique<ColumnarEvaluator>());
      probe_keys_.back()->Compile(key, left->layout());
      left_keys_.emplace_back(std::move(key), left->layout());
    }
    probe_cols_.resize(probe_keys_.size());
    if (residual != nullptr) {
      std::vector<ColumnId> combined = left->layout();
      combined.insert(combined.end(), right_layout.begin(),
                      right_layout.end());
      // The columnar probe materializes only the combined-row slots the
      // residual reads; neither evaluator touches any other slot.
      ColumnSet refs;
      CollectColumnRefs(residual, &refs);
      for (size_t s = 0; s < combined.size(); ++s) {
        if (!refs.Contains(combined[s])) continue;
        if (s < left_width_) {
          residual_left_.push_back(static_cast<int>(s));
        } else {
          residual_right_.push_back(static_cast<int>(s - left_width_));
        }
      }
      ccombined_.resize(combined.size());
      residual_vec_.Compile(residual, combined);
      residual_ = Evaluator(std::move(residual), combined);
      has_residual_ = true;
    }
    children_.push_back(std::move(left));
  }

  /// Points buckets_ at the lookup this Open probes (and, for a null-aware
  /// join, sets the build facts below).
  virtual Status OpenBuild(ExecContext* ctx) = 0;
  virtual void CloseBuild() = 0;
  /// Right-layout value `k` of build row `slot`.
  virtual Value RightValue(uint32_t slot, size_t k) const = 0;
  /// Fills `dst` with right-layout column `k` of build rows slots[0, n);
  /// kNoRight entries are NULLs.
  virtual void GatherRight(size_t k, const uint32_t* slots, uint32_t n,
                           ColumnVec* dst) = 0;

  const PhysJoinKind kind_;
  const bool null_aware_;
  const std::vector<DataType> pad_types_;  // right-layout declared types
  const KeyBuckets* buckets_ = nullptr;    // set by OpenBuild
  /// Null-aware build facts: the build drained no row at all, a build key
  /// was NULL, and the CompareClass bits of the build keys.
  bool build_empty_ = false;
  bool build_null_key_ = false;
  uint8_t build_key_classes_ = 0;

 private:
  /// Slot value of a window's row-end entry (never a build row).
  static constexpr uint32_t kRowEnd = ColumnVec::kNullRow - 1;

  /// Outer and anti joins emit the left rows no candidate matched.
  bool PassesUnmatched() const {
    return kind_ == PhysJoinKind::kLeftOuter ||
           kind_ == PhysJoinKind::kLeftAnti;
  }

  /// Null-aware anti join: whether an unmatched probe key of this NULL-ness
  /// and type passes, i.e. no build key compares with it as unknown.
  bool NotInPasses(bool key_null, DataType key_type) const {
    if (build_empty_) return true;
    if (build_null_key_ || key_null) return false;
    return (build_key_classes_ & ~CompareClass(key_type)) == 0;
  }
  bool NotInPasses(const Value& key) const {
    return NotInPasses(key.is_null(), key.type());
  }

  /// Row path: evaluates the probe keys for `left` and positions the
  /// bucket cursor; a NULL key or an absent key yields an empty bucket.
  Status LookupBucket(const Row& left, ExecContext* ctx) {
    bucket_begin_ = 0;
    bucket_size_ = 0;
    bucket_pos_ = 0;
    probe_key_.resize(left_keys_.size());
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      Result<Value> v = left_keys_[i].Eval(left, ctx);
      if (!v.ok()) return v.status();
      probe_key_[i] = std::move(*v);
      if (probe_key_[i].is_null()) return Status::OK();
    }
    if (const BucketRange* bucket = buckets_->Find(probe_key_)) {
      bucket_begin_ = bucket->begin;
      bucket_size_ = bucket->size;
    }
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinProbes, 1);
      m->Observe(MetricHistogram::kHashJoinChainLength, bucket_size_);
    }
    return Status::OK();
  }

  /// Columnar lookup of every live row of `batch`: evaluates the probe
  /// keys into probe_cols_ and sets ids_[j] to the bucket id of the row at
  /// selection position j, or KeyTable::kNone for a NULL or absent key
  /// (the build holds no NULL key, so a NULL probe key finds nothing). An
  /// empty build skips the hashing.
  Status LookupBatch(const ColumnBatch& batch, ExecContext* ctx) {
    for (size_t k = 0; k < probe_keys_.size(); ++k) {
      ORQ_ASSIGN_OR_RETURN(
          probe_cols_[k],
          probe_keys_[k]->EvalOrFallback(batch, left_keys_[k], ctx));
    }
    const uint32_t live = batch.selected();
    const KeyTable& keys = buckets_->keys;
    if (keys.size() == 0) {
      ids_.assign(live, KeyTable::kNone);
    } else {
      InitKeyHashes(batch, &hashes_);
      for (const ColumnVec* col : probe_cols_) {
        HashCombineColumn(batch, *col, &hashes_);
      }
      ids_.resize(live);
      for (uint32_t j = 0; j < live; ++j) {
        ids_[j] =
            FindColumns(keys, probe_cols_.data(), batch.RowAt(j), hashes_[j]);
      }
    }
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinProbes, static_cast<int64_t>(live));
      for (uint32_t id : ids_) {
        m->Observe(MetricHistogram::kHashJoinChainLength,
                   id == KeyTable::kNone ? 0 : buckets_->ranges[id].size);
      }
    }
    return Status::OK();
  }

  /// Semi and anti joins without a residual: the probe batch is the output
  /// batch, narrowed to the rows that (semi) found or (anti) did not find
  /// a bucket.
  Status NextFiltered(ExecContext* ctx, ColumnBatch* out) {
    const bool semi = kind_ == PhysJoinKind::kLeftSemi;
    while (true) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, out));
      if (out->selected() == 0) return Status::OK();  // end of stream
      ORQ_RETURN_IF_ERROR(LookupBatch(*out, ctx));
      const uint32_t* ids = ids_.data();
      if (semi) {
        NarrowSelection(out, [ids](uint32_t j, uint32_t) {
          return ids[j] != KeyTable::kNone;
        });
      } else if (!null_aware_) {
        NarrowSelection(out, [ids](uint32_t j, uint32_t) {
          return ids[j] == KeyTable::kNone;
        });
      } else {
        const ColumnVec& key = *probe_cols_[0];
        NarrowSelection(out, [&](uint32_t j, uint32_t r) {
          if (ids[j] != KeyTable::kNone) return false;
          return NotInPasses(key.IsNull(r), key.type());
        });
      }
      if (out->selected() > 0) return Status::OK();
    }
  }

  /// Every other join emits (probe row, slot) pairs into one output
  /// batch: without a residual straight from each probe row's bucket
  /// range (AddRangePairs), with one through the candidate window. The
  /// pairs are gathered column by column at the end.
  Status NextPairs(ExecContext* ctx, ColumnBatch* out) {
    const uint32_t cap = static_cast<uint32_t>(out->capacity());
    if (cin_ == nullptr) cin_ = std::make_unique<ColumnBatch>(ctx->batch_size);
    pair_left_.clear();
    pair_right_.clear();
    while (pair_left_.size() < cap) {
      const bool window_done = win_pos_ == win_slot_.size() && !have_left_;
      if (window_done && cjpos_ >= cin_->selected()) {
        // Refilling invalidates the probe views the gathered pairs
        // reference; flush what we have first.
        if (!pair_left_.empty()) break;
        ORQ_RETURN_IF_ERROR(PullProbeBatch(ctx));
        if (cin_->selected() == 0) break;  // probe input exhausted
      }
      if (!has_residual_) {
        AddRangePairs(cap);
        continue;
      }
      if (win_pos_ == win_slot_.size()) {
        ORQ_RETURN_IF_ERROR(FillWindow(cap, ctx));
      }
      ORQ_RETURN_IF_ERROR(ConsumeWindow(cap, ctx));
    }
    return EmitPairs(out);
  }

  /// Inner and outer joins without a residual: pairs every remaining
  /// probe row of cin_ with its bucket's slots (an outer join's unmatched
  /// row with kNoRight), until the output holds `cap` pairs. A bucket may
  /// straddle output batches.
  void AddRangePairs(uint32_t cap) {
    const bool outer = kind_ == PhysJoinKind::kLeftOuter;
    const uint32_t m = cin_->selected();
    for (; cjpos_ < m; ++cjpos_) {
      const uint32_t r = cin_->RowAt(cjpos_);
      const uint32_t id = ids_[cjpos_];
      if (id == KeyTable::kNone) {
        if (!outer) continue;
        if (pair_left_.size() >= cap) return;
        AddPair(r, kNoRight);
        continue;
      }
      const BucketRange& range = buckets_->ranges[id];
      const uint32_t take =
          std::min(range.size - bucket_pos_,
                   cap - static_cast<uint32_t>(pair_left_.size()));
      const uint32_t* slots = buckets_->slots.data() + range.begin;
      pair_left_.insert(pair_left_.end(), take, r);
      pair_right_.insert(pair_right_.end(), slots + bucket_pos_,
                         slots + bucket_pos_ + take);
      bucket_pos_ += take;
      if (bucket_pos_ < range.size) return;  // the output is full
      bucket_pos_ = 0;
    }
  }

  /// Gathers this call's output pairs into `out`; none means EOS.
  Status EmitPairs(ColumnBatch* out) {
    const uint32_t n = static_cast<uint32_t>(pair_left_.size());
    if (n == 0) return Status::OK();
    out->ResizeCols(layout_.size());
    for (size_t c = 0; c < left_width_; ++c) {
      out->col(c).GatherFrom(cin_->col(c), pair_left_.data(), n);
    }
    if (kind_ == PhysJoinKind::kInner || kind_ == PhysJoinKind::kLeftOuter) {
      for (size_t k = 0; k < pad_types_.size(); ++k) {
        GatherRight(k, pair_right_.data(), n, &out->col(left_width_ + k));
      }
    }
    out->set_num_rows(n);
    return Status::OK();
  }

  /// Pulls the next probe batch into cin_ and looks it up.
  Status PullProbeBatch(ExecContext* ctx) {
    ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, cin_.get()));
    cjpos_ = 0;
    bucket_pos_ = 0;
    resid_row_ = kNoRight;
    if (cin_->selected() == 0) return Status::OK();
    return LookupBatch(*cin_, ctx);
  }

  /// Refills the window from the enumeration cursor: up to `cap`
  /// candidates in probe order, each probe row's bucket followed by its
  /// row-end entry. A full window may stop mid-bucket; the next fill
  /// resumes there. Evaluates a vectorizable residual for the window.
  Status FillWindow(uint32_t cap, ExecContext* ctx) {
    win_row_.clear();
    win_slot_.clear();
    win_pos_ = 0;
    uint32_t candidates = 0;
    while (true) {
      if (!have_left_) {
        if (cjpos_ >= cin_->selected()) break;
        cleft_ = cin_->RowAt(cjpos_);
        const BucketRange* bucket = buckets_->Range(ids_[cjpos_]);
        bucket_begin_ = bucket != nullptr ? bucket->begin : 0;
        bucket_size_ = bucket != nullptr ? bucket->size : 0;
        bucket_pos_ = 0;
        ++cjpos_;
        have_left_ = true;
      }
      for (; bucket_pos_ < bucket_size_ && candidates < cap; ++candidates) {
        win_row_.push_back(cleft_);
        win_slot_.push_back(buckets_->slots[bucket_begin_ + bucket_pos_++]);
      }
      if (bucket_pos_ < bucket_size_) break;  // bucket straddles windows
      win_row_.push_back(cleft_);
      win_slot_.push_back(kRowEnd);
      have_left_ = false;
      if (candidates >= cap) break;
    }
    if (candidates == 0 || !residual_vec_.vectorizable()) {
      return Status::OK();
    }
    return EvalWindowResidual(candidates, ctx);
  }

  /// Vectorized residual over the window's candidates: the residual's
  /// probe-side columns gathered from cin_, its build-side columns
  /// gathered by slot, one column-wise evaluation, one keep bit per
  /// candidate.
  Status EvalWindowResidual(uint32_t candidates, ExecContext* ctx) {
    cand_left_.clear();
    cand_slot_.clear();
    for (size_t i = 0; i < win_slot_.size(); ++i) {
      if (win_slot_[i] == kRowEnd) continue;
      cand_left_.push_back(win_row_[i]);
      cand_slot_.push_back(win_slot_[i]);
    }
    if (cand_ == nullptr) cand_ = std::make_unique<ColumnBatch>();
    cand_->Clear();
    cand_->ResizeCols(ccombined_.size());
    for (int s : residual_left_) {
      cand_->col(s).GatherFrom(cin_->col(s), cand_left_.data(), candidates);
    }
    for (int k : residual_right_) {
      GatherRight(k, cand_slot_.data(), candidates,
                  &cand_->col(left_width_ + k));
    }
    cand_->set_num_rows(candidates);
    ORQ_ASSIGN_OR_RETURN(const ColumnVec* keep,
                         residual_vec_.Eval(*cand_, ctx));
    win_keep_.resize(win_slot_.size());
    uint32_t c = 0;
    for (size_t i = 0; i < win_slot_.size(); ++i) {
      if (win_slot_[i] == kRowEnd) continue;
      win_keep_[i] = PredTruthElem(*keep, c++) == 1;
    }
    return Status::OK();
  }

  /// Consumes window entries in order under the join kind's semantics,
  /// adding output pairs until the window is done or the output holds
  /// `cap` pairs. An entry is consumed only once its output fits, so a
  /// full output resumes at the same entry on the next pull.
  Status ConsumeWindow(uint32_t cap, ExecContext* ctx) {
    const bool vectorized = has_residual_ && residual_vec_.vectorizable();
    for (; win_pos_ < win_slot_.size(); ++win_pos_) {
      const uint32_t row = win_row_[win_pos_];
      const uint32_t slot = win_slot_[win_pos_];
      if (slot == kRowEnd) {
        if (!row_matched_ && PassesUnmatched()) {
          if (pair_left_.size() >= cap) return Status::OK();
          AddPair(row, kNoRight);
        }
        row_matched_ = false;
        row_done_ = false;
        continue;
      }
      if (row_done_) continue;  // semi/anti already decided this row
      if (kind_ != PhysJoinKind::kLeftAnti && pair_left_.size() >= cap) {
        return Status::OK();
      }
      bool keep = true;
      if (vectorized) {
        keep = win_keep_[win_pos_] != 0;
      } else if (has_residual_) {
        ORQ_ASSIGN_OR_RETURN(keep, EvalResidualRow(row, slot, ctx));
      }
      if (!keep) continue;
      row_matched_ = true;
      switch (kind_) {
        case PhysJoinKind::kInner:
        case PhysJoinKind::kLeftOuter:
          AddPair(row, slot);
          break;
        case PhysJoinKind::kLeftSemi:
          AddPair(row, kNoRight);
          row_done_ = true;
          break;
        case PhysJoinKind::kLeftAnti:
          row_done_ = true;
          break;
      }
    }
    return Status::OK();
  }

  /// Per-candidate residual through the row Evaluator, over a reused
  /// combined-row scratch in which only the slots the residual reads are
  /// filled: the probe side's once per probe row, the build side's per
  /// candidate.
  Result<bool> EvalResidualRow(uint32_t row, uint32_t slot,
                               ExecContext* ctx) {
    if (row != resid_row_) {
      for (int s : residual_left_) {
        ccombined_[s] = cin_->col(s).GetValue(row);
      }
      resid_row_ = row;
    }
    for (int k : residual_right_) {
      ccombined_[left_width_ + k] = RightValue(slot, k);
    }
    return residual_.EvalPredicate(ccombined_, ctx);
  }

  void AddPair(uint32_t left, uint32_t right) {
    pair_left_.push_back(left);
    pair_right_.push_back(right);
  }

  const size_t left_width_;
  std::vector<Evaluator> left_keys_;
  Evaluator residual_;
  ColumnarEvaluator residual_vec_;  // vectorizable() picks the window path
  bool has_residual_ = false;
  /// Combined-row slots the residual reads: probe-side slots, and
  /// build-side slots relative to the right layout.
  std::vector<int> residual_left_, residual_right_;

  /// Probe cursor. Row path: the current left row and its bucket. Columnar
  /// path: the selection position and bucket offset NextPairs or the
  /// window fill resumes at. The two never interleave within one Open.
  Row left_row_;
  Row probe_key_;  // the row path's probe key
  bool have_left_ = false;
  uint32_t bucket_begin_ = 0;
  uint32_t bucket_size_ = 0;
  uint32_t bucket_pos_ = 0;
  /// Whether a candidate of the row being consumed passed, and (semi/anti)
  /// whether that row's outcome is already decided.
  bool row_matched_ = false;
  bool row_done_ = false;

  /// Columnar probe input and its lookup: the key columns, the per
  /// selection position key hashes and bucket ids.
  std::vector<std::unique_ptr<ColumnarEvaluator>> probe_keys_;
  std::vector<const ColumnVec*> probe_cols_;
  std::vector<size_t> hashes_;
  std::vector<uint32_t> ids_;
  std::unique_ptr<ColumnBatch> cin_;  // probe batch of the pair paths
  uint32_t cjpos_ = 0;                // next selection position of cin_
  uint32_t cleft_ = 0;                // physical probe row being enumerated
  /// The window: probe row (physical, in cin_) and slot or kRowEnd per
  /// entry, the vectorized residual's verdict per candidate entry, and the
  /// consumption cursor.
  std::vector<uint32_t> win_row_, win_slot_;
  std::vector<uint8_t> win_keep_;
  size_t win_pos_ = 0;
  /// Vectorized-residual scratch: the window's candidates and their
  /// gathered columns (combined-layout wide; only residual slots filled).
  std::vector<uint32_t> cand_left_, cand_slot_;
  std::unique_ptr<ColumnBatch> cand_;
  /// Per-row residual scratch and the probe row whose slots it holds.
  Row ccombined_;
  uint32_t resid_row_ = kNoRight;
  /// Output pairs gathered this call: physical probe row in cin_, and
  /// build slot or kNoRight.
  std::vector<uint32_t> pair_left_, pair_right_;
};

std::vector<ScalarExprPtr> ProbeSides(
    const std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>>& keys) {
  std::vector<ScalarExprPtr> left;
  for (const auto& key : keys) left.push_back(key.first);
  return left;
}

/// Equi-join on a hash table built from the right input: its rows stored
/// column-major and typed (BuildTable), its right columns gathered by slot
/// from zero-copy views of the payload columns.
class HashJoinOp final : public ProbeJoinOp {
 public:
  HashJoinOp(PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
             std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys,
             ScalarExprPtr residual, std::vector<DataType> right_types,
             bool cache_build, SharedRegionStatePtr shared, int worker,
             bool null_aware)
      : ProbeJoinOp(kind, std::move(left), right->layout(), ProbeSides(keys),
                    std::move(residual), std::move(right_types), null_aware),
        cache_build_(cache_build && shared == nullptr),
        worker_(worker),
        shared_(std::static_pointer_cast<SharedJoinState>(shared)) {
    for (auto& key : keys) {
      build_keys_.push_back(std::make_unique<ColumnarEvaluator>());
      build_keys_.back()->Compile(key.second, right->layout());
      right_keys_.emplace_back(std::move(key.second), right->layout());
    }
    build_cols_.resize(right_keys_.size());
    children_.push_back(std::move(right));
  }

  std::string name() const override {
    return null_aware_ ? "HashJoin(null-aware-anti)"
                       : "HashJoin(" + JoinKindName(kind_) + ")";
  }

 private:
  Status OpenBuild(ExecContext* ctx) override {
    if (shared_ != nullptr) {
      // Parallel build: drain this worker's share of the build input into
      // a partial table and meet the gang at the merge barrier. The drain
      // status rides along so an error still completes the barrier.
      BuildTable partial;
      Status drain = DrainBuild(ctx, &partial);
      bool merged_here = false;
      Result<const BuildTable*> merged =
          shared_->Deposit(worker_, drain, right_keys_.size(), pad_types_,
                           std::move(partial), &merged_here);
      if (!merged.ok()) return merged.status();
      active_ = *merged;
      if (merged_here) RecordBuildStats();
    } else if (cache_build_ && built_) {
      // Uncorrelated build side re-opened: probe the retained table.
      if (MetricsRegistry* m = metrics()) {
        m->Add(MetricCounter::kInnerCacheReplays, 1);
      }
      active_ = &local_;
    } else {
      ORQ_RETURN_IF_ERROR(DrainBuild(ctx, &local_));
      local_.Finish();
      built_ = true;
      active_ = &local_;
      RecordBuildStats();
    }
    buckets_ = &active_->buckets;
    build_empty_ = active_->rows == 0 && !active_->null_key;
    build_null_key_ = active_->null_key;
    build_key_classes_ = 0;
    for (size_t k = 0; k < buckets_->keys.width(); ++k) {
      const TypedColumn& col = buckets_->keys.col(k);
      if (col.size() > 0) build_key_classes_ |= CompareClass(col.type());
    }
    views_.resize(active_->payload.size());
    for (size_t k = 0; k < views_.size(); ++k) {
      ViewTypedColumn(active_->payload[k], 0, active_->rows, &views_[k]);
    }
    return Status::OK();
  }

  void CloseBuild() override {
    // The shared table is released by the exchange's Close (other workers
    // may still be probing it here); a caching build survives for replay.
    if (shared_ == nullptr && !cache_build_) {
      local_.Reset(right_keys_.size(), pad_types_);
    }
    active_ = nullptr;
  }

  Value RightValue(uint32_t slot, size_t k) const override {
    return active_->payload[k].Get(slot);
  }

  void GatherRight(size_t k, const uint32_t* slots, uint32_t n,
                   ColumnVec* dst) override {
    dst->GatherFrom(views_[k], slots, n);
  }

  /// Evaluates the build keys of `row` into `key`; false when a key is
  /// NULL (NULL keys never join).
  Result<bool> BuildKey(const Row& row, ExecContext* ctx, Row* key) const {
    for (size_t i = 0; i < right_keys_.size(); ++i) {
      ORQ_ASSIGN_OR_RETURN(Value v, right_keys_[i].Eval(row, ctx));
      if (v.is_null()) return false;
      (*key)[i] = std::move(v);
    }
    return true;
  }

  /// Drains the right child into `table` (Reset first): row by row in row
  /// mode; in columnar mode each batch's build keys are evaluated and
  /// hashed column-wise, its NULL-key rows dropped from the selection, and
  /// the rest inserted column-keyed with their payload appended typed.
  /// Closes the child on every path. Serial and parallel builds alike.
  Status DrainBuild(ExecContext* ctx, BuildTable* table) {
    table->Reset(right_keys_.size(), pad_types_);
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    Row key(right_keys_.size());
    Status drain = DrainBatches(
        children_[1].get(), ctx,
        [&](Row& row) -> Status {
          ORQ_ASSIGN_OR_RETURN(bool joinable, BuildKey(row, ctx, &key));
          if (joinable) {
            table->AddRow(key, row);
          } else {
            table->null_key = true;
          }
          return Status::OK();
        },
        [&](ColumnBatch& batch) -> Status {
          for (size_t k = 0; k < build_keys_.size(); ++k) {
            ORQ_ASSIGN_OR_RETURN(
                build_cols_[k],
                build_keys_[k]->EvalOrFallback(batch, right_keys_[k], ctx));
          }
          const uint32_t live = batch.selected();
          NarrowSelection(&batch, [&](uint32_t, uint32_t r) {
            for (const ColumnVec* col : build_cols_) {
              if (col->IsNull(r)) return false;
            }
            return true;
          });
          if (batch.selected() < live) table->null_key = true;
          if (batch.selected() == 0) return Status::OK();
          InitKeyHashes(batch, &build_hashes_);
          for (const ColumnVec* col : build_cols_) {
            HashCombineColumn(batch, *col, &build_hashes_);
          }
          table->AddBatch(batch, build_cols_.data(), build_hashes_,
                          &build_ids_);
          return table->status();
        });
    children_[1]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    ORQ_RETURN_IF_ERROR(table->status());
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinBuildRows,
             static_cast<int64_t>(table->rows));
    }
    return Status::OK();
  }

  /// Table-wide build statistics, recorded once per build: by the serial
  /// builder, or by the single worker that performed the parallel merge
  /// (into its shard; the exchange merges shards afterwards).
  void RecordBuildStats() {
    const KeyBuckets& buckets = active_->buckets;
    RecordPeak(static_cast<int64_t>(buckets.keys.size()));
    MetricsRegistry* m = metrics();
    if (m == nullptr) return;
    m->Add(MetricCounter::kHashJoinBuckets,
           static_cast<int64_t>(buckets.keys.size()));
    for (const BucketRange& range : buckets.ranges) {
      m->Observe(MetricHistogram::kHashJoinBucketRows, range.size);
    }
    m->Add(MetricCounter::kHashJoinArenaBytes,
           static_cast<int64_t>(active_->MemoryBytes()));
  }

  const bool cache_build_;
  const int worker_;
  std::shared_ptr<SharedJoinState> shared_;
  std::vector<Evaluator> right_keys_;
  /// Columnar build scratch: key evaluators, key columns, hashes, ids.
  std::vector<std::unique_ptr<ColumnarEvaluator>> build_keys_;
  std::vector<const ColumnVec*> build_cols_;
  std::vector<size_t> build_hashes_;
  std::vector<uint32_t> build_ids_;
  BuildTable local_;                    // serial/cached build product
  const BuildTable* active_ = nullptr;  // table being probed (local or shared)
  bool built_ = false;                  // local_ valid across Open cycles
  /// Zero-copy views of the probed table's payload columns.
  std::vector<ColumnVec> views_;
};

/// Index-lookup join: the probe runs against a base table's prebuilt index
/// (slots are table row positions), so Open builds nothing. Right columns
/// are gathered by slot from whole-column views of the table's column
/// chunks; the row path decodes the table's cells by slot.
class IndexJoinOp final : public ProbeJoinOp {
 public:
  IndexJoinOp(PhysJoinKind kind, PhysicalOpPtr left, const Table* table,
              const TableIndex* index, std::vector<ScalarExprPtr> probe_keys,
              std::vector<int> ordinals, std::vector<ColumnId> layout,
              ScalarExprPtr residual, std::vector<DataType> right_types)
      : ProbeJoinOp(kind, std::move(left), layout, std::move(probe_keys),
                    std::move(residual), std::move(right_types),
                    /*null_aware=*/false),
        table_(table),
        index_(index),
        ordinals_(std::move(ordinals)) {}

  std::string name() const override {
    return "IndexJoin(" + JoinKindName(kind_) + ")(" + table_->name() + ")";
  }

 private:
  Status OpenBuild(ExecContext*) override {
    buckets_ = &index_->buckets();
    views_.clear();  // re-viewed on the first columnar gather
    return Status::OK();
  }

  void CloseBuild() override {}

  Value RightValue(uint32_t slot, size_t k) const override {
    return table_->CellAt(slot, ordinals_[k]);
  }

  void GatherRight(size_t k, const uint32_t* slots, uint32_t n,
                   ColumnVec* dst) override {
    if (views_.empty()) {
      const std::vector<TypedColumn>& chunks = table_->ColumnarChunks();
      const uint32_t rows = static_cast<uint32_t>(table_->num_rows());
      views_.resize(ordinals_.size());
      for (size_t i = 0; i < ordinals_.size(); ++i) {
        ViewTypedColumn(chunks[ordinals_[i]], 0, rows, &views_[i]);
      }
    }
    dst->GatherFrom(views_[k], slots, n);
  }

  const Table* table_;
  const TableIndex* index_;
  std::vector<int> ordinals_;  // table ordinal of each right-layout column
  /// Whole-table views of the right columns' chunks.
  std::vector<ColumnVec> views_;
};

}  // namespace

PhysicalOpPtr MakeNLJoinOp(PhysJoinKind kind, PhysicalOpPtr left,
                           PhysicalOpPtr right, ScalarExprPtr predicate,
                           bool rebind_inner,
                           std::vector<DataType> right_types,
                           bool cache_inner) {
  return std::make_unique<NLJoinOp>(kind, std::move(left), std::move(right),
                                    std::move(predicate), rebind_inner,
                                    std::move(right_types), cache_inner);
}

PhysicalOpPtr MakeHashJoinOp(
    PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
    std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys,
    ScalarExprPtr residual, std::vector<DataType> right_types,
    bool cache_build, SharedRegionStatePtr shared, int worker) {
  return std::make_unique<HashJoinOp>(kind, std::move(left), std::move(right),
                                      std::move(keys), std::move(residual),
                                      std::move(right_types), cache_build,
                                      std::move(shared), worker,
                                      /*null_aware=*/false);
}

PhysicalOpPtr MakeNullAwareAntiJoinOp(
    PhysicalOpPtr left, PhysicalOpPtr right,
    std::pair<ScalarExprPtr, ScalarExprPtr> key,
    std::vector<DataType> right_types, bool cache_build,
    SharedRegionStatePtr shared, int worker) {
  return std::make_unique<HashJoinOp>(
      PhysJoinKind::kLeftAnti, std::move(left), std::move(right),
      std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>>{std::move(key)},
      nullptr, std::move(right_types), cache_build, std::move(shared), worker,
      /*null_aware=*/true);
}

PhysicalOpPtr MakeIndexJoinOp(PhysJoinKind kind, PhysicalOpPtr left,
                              const Table* table, const TableIndex* index,
                              std::vector<ScalarExprPtr> probe_keys,
                              std::vector<int> ordinals,
                              std::vector<ColumnId> layout,
                              ScalarExprPtr residual,
                              std::vector<DataType> right_types) {
  return std::make_unique<IndexJoinOp>(
      kind, std::move(left), table, index, std::move(probe_keys),
      std::move(ordinals), std::move(layout), std::move(residual),
      std::move(right_types));
}

SharedRegionStatePtr MakeSharedJoinState(int workers) {
  return std::make_shared<SharedJoinState>(workers);
}

}  // namespace orq
