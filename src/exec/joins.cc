#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "algebra/expr_util.h"
#include "exec/evaluator.h"
#include "exec/ops.h"
#include "exec/packed_key.h"
#include "exec/parallel.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

std::vector<ColumnId> CombinedLayout(const PhysicalOp& left,
                                     const PhysicalOp& right,
                                     PhysJoinKind kind) {
  std::vector<ColumnId> layout = left.layout();
  if (kind == PhysJoinKind::kInner || kind == PhysJoinKind::kLeftOuter) {
    layout.insert(layout.end(), right.layout().begin(),
                  right.layout().end());
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
    layout_ = CombinedLayout(*left, *right, kind);
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

/// A bucket's slice of the slots permutation. `filled` is the build-time
/// scatter cursor; unused after the build completes.
struct BucketRange {
  uint32_t begin = 0;
  uint32_t size = 0;
  uint32_t filled = 0;
};

/// A complete hash-join build product: rows in arrival order, the slots
/// permutation grouping them by key, and the key -> bucket-range index.
/// Serial builds own one; parallel builds probe the one merged inside
/// SharedJoinState.
struct BuildTable {
  std::vector<Row> arena;        // build rows, arrival order
  std::vector<uint32_t> slots;   // arena indices grouped by bucket
  std::unordered_map<PackedKey, BucketRange, PackedKeyHash, PackedKeyEq>
      table;

  void Clear() {
    arena.clear();
    slots.clear();
    table.clear();
  }
};

/// Assigns each bucket a contiguous slot range, then scatters arena
/// indices into their bucket's range in arrival order. `row_bucket[i]` is
/// the bucket of arena row i. Shared by the serial build and the parallel
/// merge.
void FinishScatter(BuildTable* t,
                   const std::vector<BucketRange*>& row_bucket) {
  uint32_t offset = 0;
  for (auto& entry : t->table) {
    entry.second.begin = offset;
    offset += entry.second.size;
  }
  t->slots.resize(t->arena.size());
  for (size_t i = 0; i < t->arena.size(); ++i) {
    BucketRange* bucket = row_bucket[i];
    t->slots[bucket->begin + bucket->filled++] =
        static_cast<uint32_t>(i);
  }
}

/// Build-side rendezvous of a parallel hash join. Every worker drains its
/// morsel share of the build input into a private (key, row) partial, then
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
    for (auto& partial : partials_) {
      partial.clear();
      partial.shrink_to_fit();
    }
    table_.Clear();
  }

  /// Blocks until all workers deposited and the merge completed. Returns
  /// the shared table (same pointer for every worker) or the first
  /// deposited error. `*merged_here` is set for exactly one worker — the
  /// one that performed the merge — so table-wide stats are recorded once.
  Result<const BuildTable*> Deposit(
      int worker, const Status& drain,
      std::vector<std::pair<PackedKey, Row>> partial, bool* merged_here) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain.ok() && status_.ok()) status_ = drain;
    partials_[static_cast<size_t>(worker)] = std::move(partial);
    *merged_here = false;
    if (++deposited_ == workers_) {
      if (status_.ok()) {
        Merge();
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
  void Merge() {
    size_t total = 0;
    for (const auto& partial : partials_) total += partial.size();
    table_.arena.reserve(total);
    std::vector<BucketRange*> row_bucket;
    row_bucket.reserve(total);
    for (auto& partial : partials_) {
      for (auto& [key, row] : partial) {
        auto it = table_.table.find(key);
        if (it == table_.table.end()) {
          it = table_.table.emplace(std::move(key), BucketRange{}).first;
        }
        ++it->second.size;
        row_bucket.push_back(&it->second);
        table_.arena.push_back(std::move(row));
      }
      partial.clear();
      partial.shrink_to_fit();
    }
    FinishScatter(&table_, row_bucket);
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int deposited_ = 0;
  bool merge_done_ = false;
  Status status_;
  std::vector<std::vector<std::pair<PackedKey, Row>>> partials_;
  BuildTable table_;
};

class HashJoinOp : public PhysicalOp {
 public:
  HashJoinOp(PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
             std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys,
             ScalarExprPtr residual, std::vector<DataType> right_types,
             bool cache_build, SharedRegionStatePtr shared, int worker)
      : kind_(kind),
        cache_build_(cache_build && shared == nullptr),
        worker_(worker),
        shared_(std::static_pointer_cast<SharedJoinState>(shared)),
        pad_types_(
            ResolvePadTypes(std::move(right_types), right->layout().size())) {
    layout_ = CombinedLayout(*left, *right, kind);
    for (auto& [l, r] : keys) {
      probe_keys_.push_back(std::make_unique<ColumnarEvaluator>());
      probe_keys_.back()->Compile(l, left->layout());
      left_keys_.emplace_back(std::move(l), left->layout());
      right_keys_.emplace_back(std::move(r), right->layout());
    }
    probe_cols_.resize(probe_keys_.size());
    if (residual != nullptr) {
      std::vector<ColumnId> combined = left->layout();
      combined.insert(combined.end(), right->layout().begin(),
                      right->layout().end());
      // The columnar probe materializes only the combined-row slots the
      // residual reads; the evaluator touches no other slot.
      ColumnSet refs;
      CollectColumnRefs(residual, &refs);
      const size_t left_width = left->layout().size();
      for (size_t s = 0; s < combined.size(); ++s) {
        if (!refs.Contains(combined[s])) continue;
        if (s < left_width) {
          residual_left_.push_back(static_cast<int>(s));
        } else {
          residual_right_.push_back(static_cast<int>(s - left_width));
        }
      }
      ccombined_.resize(combined.size());
      residual_ = Evaluator(std::move(residual), combined);
      has_residual_ = true;
    }
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  Status OpenImpl(ExecContext* ctx) override {
    if (shared_ != nullptr) {
      // Parallel build: drain this worker's share of the build input into
      // (key, row) pairs and meet the gang at the merge barrier. The drain
      // status rides along so an error still completes the barrier.
      std::vector<std::pair<PackedKey, Row>> partial;
      Status drain = DrainBuildPartial(ctx, &partial);
      bool merged_here = false;
      Result<const BuildTable*> merged =
          shared_->Deposit(worker_, drain, std::move(partial), &merged_here);
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
      ORQ_RETURN_IF_ERROR(BuildLocal(ctx));
      built_ = true;
      active_ = &local_;
      RecordBuildStats();
    }
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    have_left_ = false;
    cjpos_ = 0;
    if (cin_ != nullptr) cin_->Clear();
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (true) {
      if (!have_left_) {
        ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, &left_row_));
        if (!more) return false;
        have_left_ = true;
        matched_ = false;
        ORQ_RETURN_IF_ERROR(LookupBucket(left_row_, ctx));
      }
      while (bucket_pos_ < bucket_size_) {
        const Row& inner =
            active_->arena[active_->slots[bucket_begin_ + bucket_pos_++]];
        Row combined = left_row_;
        combined.insert(combined.end(), inner.begin(), inner.end());
        if (has_residual_) {
          ORQ_ASSIGN_OR_RETURN(bool keep,
                               residual_.EvalPredicate(combined, ctx));
          if (!keep) continue;
        }
        matched_ = true;
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
      bool emit_unmatched = !matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                                          kind_ == PhysJoinKind::kLeftAnti);
      have_left_ = false;
      if (emit_unmatched) {
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

  /// Columnar probe: key hashes are computed column-wise for the whole
  /// probe batch, lookups go through ColumnKeyRef (no probe-row decode),
  /// and matches accumulate as (probe row, arena slot) pairs that are
  /// gathered into output columns in one pass. The build side is unchanged
  /// — its arena stays row-major and right output columns are appended
  /// from arena rows.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    const size_t left_width = children_[0]->layout().size();
    const bool emit_right = kind_ == PhysJoinKind::kInner ||
                            kind_ == PhysJoinKind::kLeftOuter;
    const uint32_t cap = static_cast<uint32_t>(out->capacity());
    if (cin_ == nullptr) {
      cin_ = std::make_unique<ColumnBatch>(ctx->batch_size);
    }
    pair_left_.clear();
    pair_right_.clear();
    while (true) {
      if (!have_left_) {
        if (cjpos_ >= cin_->selected()) {
          // Refilling invalidates the probe views the gathered pairs
          // reference; flush what we have first.
          if (!pair_left_.empty()) break;
          ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, cin_.get()));
          if (cin_->selected() == 0) break;  // probe input exhausted
          cjpos_ = 0;
          ORQ_RETURN_IF_ERROR(EvalProbeKeys(ctx));
          InitKeyHashes(*cin_, &chashes_);
          for (const ColumnVec* col : probe_cols_) {
            HashCombineColumn(*cin_, *col, &chashes_);
          }
          if (MetricsRegistry* m = metrics()) {
            m->Add(MetricCounter::kHashJoinProbes,
                   static_cast<int64_t>(cin_->selected()));
          }
        }
        cleft_ = cin_->RowAt(cjpos_);
        have_left_ = true;
        matched_ = false;
        cleft_decoded_ = false;
        LookupBucketColumnar(cjpos_);
        ++cjpos_;
      }
      while (have_left_ && bucket_pos_ < bucket_size_ &&
             pair_left_.size() < cap) {
        const uint32_t slot = active_->slots[bucket_begin_ + bucket_pos_++];
        if (has_residual_) {
          bool keep = false;
          {
            ORQ_ASSIGN_OR_RETURN(keep, EvalResidualColumnar(slot, ctx));
          }
          if (!keep) continue;
        }
        matched_ = true;
        switch (kind_) {
          case PhysJoinKind::kInner:
          case PhysJoinKind::kLeftOuter:
            AddPair(cleft_, slot);
            break;
          case PhysJoinKind::kLeftSemi:
            AddPair(cleft_, kNoRight);
            have_left_ = false;
            break;
          case PhysJoinKind::kLeftAnti:
            have_left_ = false;
            break;
        }
      }
      if (have_left_ && bucket_pos_ >= bucket_size_) {
        if (!matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                          kind_ == PhysJoinKind::kLeftAnti)) {
          // No room for the pad/pass-through row: leave this probe row
          // current (bucket exhausted, unmatched) and resume here next call.
          if (pair_left_.size() >= cap) break;
          AddPair(cleft_, kNoRight);
        }
        have_left_ = false;
      }
      if (pair_left_.size() >= cap) break;
    }
    const uint32_t n = static_cast<uint32_t>(pair_left_.size());
    if (n == 0) return Status::OK();  // EOS
    out->ResizeCols(layout_.size());
    for (size_t c = 0; c < left_width; ++c) {
      out->col(c).GatherFrom(cin_->col(c), pair_left_.data(), n);
    }
    if (emit_right) {
      for (size_t k = 0; k < pad_types_.size(); ++k) {
        ColumnVec& dst = out->col(left_width + k);
        dst.StartBuild(pad_types_[k], n);
        for (uint32_t right : pair_right_) {
          if (right == kNoRight) {
            dst.AppendNull();
          } else {
            dst.AppendValue(active_->arena[right][k]);
          }
        }
        dst.Seal();
      }
    }
    out->set_num_rows(n);
    return Status::OK();
  }

  void CloseImpl() override {
    children_[0]->Close();
    // The shared table is released by the exchange's Close (other workers
    // may still be probing it here); a caching build survives for replay.
    if (shared_ == nullptr && !cache_build_) local_.Clear();
    active_ = nullptr;
  }

  std::string name() const override {
    std::string kind;
    switch (kind_) {
      case PhysJoinKind::kInner: kind = "inner"; break;
      case PhysJoinKind::kLeftOuter: kind = "leftouter"; break;
      case PhysJoinKind::kLeftSemi: kind = "semi"; break;
      case PhysJoinKind::kLeftAnti: kind = "anti"; break;
    }
    return "HashJoin(" + kind + ")";
  }

 private:
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

  /// Serial build: drain the right child into local_, keyed by a packed
  /// key (hash precomputed once per distinct key). Buckets are ranges into
  /// a single slots permutation rather than one vector of row copies per
  /// key.
  Status BuildLocal(ExecContext* ctx) {
    local_.Clear();
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    std::vector<BucketRange*> row_bucket;
    Row key(right_keys_.size());
    Status drain =
        DrainRows(children_[1].get(), ctx, [&](Row& row) -> Status {
          ORQ_ASSIGN_OR_RETURN(bool joinable, BuildKey(row, ctx, &key));
          if (!joinable) return Status::OK();
          auto it = local_.table.find(key);
          if (it == local_.table.end()) {
            it = local_.table
                     .emplace(PackedKey(std::move(key)), BucketRange{})
                     .first;
            key = Row(right_keys_.size());
          }
          ++it->second.size;
          row_bucket.push_back(&it->second);
          local_.arena.push_back(std::move(row));
          return Status::OK();
        });
    children_[1]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    FinishScatter(&local_, row_bucket);
    return Status::OK();
  }

  /// Parallel build: drain the right child (a morsel share of the build
  /// input) into per-row (key, row) pairs for the shared merge. Closes the
  /// child on every path; the caller deposits whatever status results.
  Status DrainBuildPartial(ExecContext* ctx,
                           std::vector<std::pair<PackedKey, Row>>* partial) {
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    Status drain =
        DrainRows(children_[1].get(), ctx, [&](Row& row) -> Status {
          Row key(right_keys_.size());
          ORQ_ASSIGN_OR_RETURN(bool joinable, BuildKey(row, ctx, &key));
          if (joinable) {
            partial->emplace_back(PackedKey(std::move(key)), std::move(row));
          }
          return Status::OK();
        });
    children_[1]->Close();
    ORQ_RETURN_IF_ERROR(drain);
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinBuildRows,
             static_cast<int64_t>(partial->size()));
    }
    return Status::OK();
  }

  /// Table-wide build statistics, recorded once per build: by the serial
  /// builder, or by the single worker that performed the parallel merge
  /// (into its shard; the exchange merges shards afterwards).
  void RecordBuildStats() {
    RecordPeak(static_cast<int64_t>(active_->table.size()));
    MetricsRegistry* m = metrics();
    if (m == nullptr) return;
    if (shared_ == nullptr) {
      // The parallel path counts build rows per worker in
      // DrainBuildPartial; count the serial drain here.
      m->Add(MetricCounter::kHashJoinBuildRows,
             static_cast<int64_t>(active_->arena.size()));
    }
    m->Add(MetricCounter::kHashJoinBuckets,
           static_cast<int64_t>(active_->table.size()));
    // Approximate resident footprint of the build side: row headers and
    // value storage in the arena, the slots permutation, and the packed
    // keys + bucket ranges in the table. String payloads are not walked.
    int64_t bytes =
        static_cast<int64_t>(active_->slots.size() * sizeof(uint32_t));
    for (const Row& row : active_->arena) {
      bytes += static_cast<int64_t>(sizeof(Row) +
                                    row.capacity() * sizeof(Value));
    }
    for (const auto& entry : active_->table) {
      bytes += static_cast<int64_t>(
          sizeof(PackedKey) + sizeof(BucketRange) +
          entry.first.values.capacity() * sizeof(Value));
      m->Observe(MetricHistogram::kHashJoinBucketRows, entry.second.size);
    }
    m->Add(MetricCounter::kHashJoinArenaBytes, bytes);
  }

  /// Points probe_cols_ at the current probe batch's key columns (a plain
  /// column ref is cin_'s own column, read in place).
  Status EvalProbeKeys(ExecContext* ctx) {
    for (size_t k = 0; k < probe_keys_.size(); ++k) {
      ORQ_ASSIGN_OR_RETURN(
          probe_cols_[k],
          probe_keys_[k]->EvalOrFallback(*cin_, left_keys_[k], ctx));
    }
    return Status::OK();
  }

  /// Columnar analogue of LookupBucket: positions the bucket cursor for
  /// the probe row at selection position `j` of cin_. Key NULL detection
  /// and the hash come from the key columns; the heterogeneous find
  /// compares hash-first and only runs the per-key comparison on a hash
  /// hit.
  void LookupBucketColumnar(uint32_t j) {
    bucket_begin_ = 0;
    bucket_size_ = 0;
    bucket_pos_ = 0;
    const uint32_t r = cin_->RowAt(j);
    bool null_key = false;
    for (const ColumnVec* col : probe_cols_) {
      if (col->IsNull(r)) {
        null_key = true;  // NULL keys never join
        break;
      }
    }
    if (!null_key) {
      ColumnKeyRef ref{probe_cols_.data(), probe_cols_.size(), r,
                       chashes_[j]};
      auto it = active_->table.find(ref);
      if (it != active_->table.end()) {
        bucket_begin_ = it->second.begin;
        bucket_size_ = it->second.size;
      }
    }
    if (MetricsRegistry* m = metrics()) {
      m->Observe(MetricHistogram::kHashJoinChainLength, bucket_size_);
    }
  }

  /// Residual predicate for a (current probe row, arena slot) candidate,
  /// through the same row Evaluator the row path uses, over a reused
  /// combined-row scratch in which only the slots the residual reads are
  /// filled: the probe side's once per probe row, the build side's per
  /// candidate.
  Result<bool> EvalResidualColumnar(uint32_t arena_slot, ExecContext* ctx) {
    if (!cleft_decoded_) {
      for (int s : residual_left_) {
        ccombined_[s] = cin_->col(s).GetValue(cleft_);
      }
      cleft_decoded_ = true;
    }
    const Row& inner = active_->arena[arena_slot];
    const size_t left_width = children_[0]->layout().size();
    for (int k : residual_right_) ccombined_[left_width + k] = inner[k];
    return residual_.EvalPredicate(ccombined_, ctx);
  }

  void AddPair(uint32_t left, uint32_t right) {
    pair_left_.push_back(left);
    pair_right_.push_back(right);
  }

  /// Evaluates the probe keys for `left` and positions the bucket cursor;
  /// a NULL key or an absent key yields an empty bucket.
  Status LookupBucket(const Row& left, ExecContext* ctx) {
    bucket_begin_ = 0;
    bucket_size_ = 0;
    bucket_pos_ = 0;
    probe_key_.resize(left_keys_.size());
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      Result<Value> v = left_keys_[i].Eval(left, ctx);
      if (!v.ok()) return v.status();
      if (v->is_null()) return Status::OK();
      probe_key_[i] = std::move(*v);
    }
    auto it = active_->table.find(probe_key_);  // heterogeneous: no key copy
    if (it != active_->table.end()) {
      bucket_begin_ = it->second.begin;
      bucket_size_ = it->second.size;
    }
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinProbes, 1);
      m->Observe(MetricHistogram::kHashJoinChainLength, bucket_size_);
    }
    return Status::OK();
  }

  PhysJoinKind kind_;
  bool cache_build_;
  int worker_;
  std::shared_ptr<SharedJoinState> shared_;
  std::vector<DataType> pad_types_;
  std::vector<Evaluator> left_keys_, right_keys_;
  Evaluator residual_;
  bool has_residual_ = false;
  BuildTable local_;                      // serial/cached build product
  const BuildTable* active_ = nullptr;    // table being probed (local or shared)
  bool built_ = false;                    // local_ valid across Open cycles
  Row left_row_;               // row path: current probe row
  Row probe_key_;              // scratch for heterogeneous lookups
  bool have_left_ = false;
  bool matched_ = false;
  uint32_t bucket_begin_ = 0;
  uint32_t bucket_size_ = 0;
  uint32_t bucket_pos_ = 0;

  /// Columnar-probe state (NextColumnsImpl); shares matched_ and the
  /// bucket cursor with the row path, which never interleaves with it.
  static constexpr uint32_t kNoRight = UINT32_MAX;  // pad / probe-only pair
  /// Columnar probe keys, index-aligned with left_keys_.
  std::vector<std::unique_ptr<ColumnarEvaluator>> probe_keys_;
  std::vector<const ColumnVec*> probe_cols_;  // key columns of cin_
  std::unique_ptr<ColumnBatch> cin_;    // current probe input batch
  std::vector<size_t> chashes_;         // per-selection-position key hashes
  uint32_t cjpos_ = 0;                  // selection cursor into cin_
  uint32_t cleft_ = 0;                  // current probe row (physical)
  bool cleft_decoded_ = false;  // ccombined_ holds cleft_'s residual slots
  /// Output pairs gathered this call: physical probe row in cin_, and
  /// build arena slot or kNoRight.
  std::vector<uint32_t> pair_left_, pair_right_;
  /// Combined-row slots the residual reads: probe-side slots, and
  /// build-side slots relative to the right layout.
  std::vector<int> residual_left_, residual_right_;
  Row ccombined_;  // residual-eval scratch, combined-layout wide
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
                                      std::move(shared), worker);
}

SharedRegionStatePtr MakeSharedJoinState(int workers) {
  return std::make_shared<SharedJoinState>(workers);
}

}  // namespace orq
