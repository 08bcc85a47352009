#include <condition_variable>
#include <deque>
#include <mutex>

#include "exec/parallel.h"
#include "exec/task_pool.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// Bounded N-producer / 1-consumer queue of column batches, each dense and
/// owning its storage (no views into producer scratch). Producers block
/// when the queue is full; the consumer blocks until a batch arrives or
/// every producer has finished. Cancel() (consumer abandoning the stream)
/// unblocks producers: their next Push returns false and they wind down.
/// The first producer error is latched and surfaces from Pop.
class BatchQueue {
 public:
  void Reset(int producers, size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    items_.clear();
    capacity_ = capacity;
    producers_left_ = producers;
    cancelled_ = false;
    status_ = Status::OK();
    batches_ = 0;
  }

  /// False when the consumer cancelled; the producer should stop draining.
  bool Push(ColumnBatch batch) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || cancelled_; });
    if (cancelled_) return false;
    items_.push_back(std::move(batch));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// True with a batch in `out`, false at end of stream (all producers
  /// done, queue drained), or the first producer error.
  Result<bool> Pop(ColumnBatch* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] {
      return !items_.empty() || producers_left_ == 0 || !status_.ok();
    });
    if (!status_.ok()) return status_;
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    ++batches_;
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// The producer's LAST touch of the queue. The notifies happen under the
  /// mutex deliberately: WaitAllDone's waiter may destroy this object as
  /// soon as it observes producers_left_ == 0, which it can only do after
  /// this thread releases mu_ — notifying first keeps the condition
  /// variables alive for the broadcast. (Notifying after unlock here is a
  /// use-after-free that corrupts the futex and hangs the whole gang.)
  void ProducerDone(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok() && status_.ok()) status_ = status;
    --producers_left_;
    not_empty_.notify_all();
    all_done_.notify_all();
  }

  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cancelled_ = true;
    }
    not_full_.notify_all();
  }

  void WaitAllDone() {
    std::unique_lock<std::mutex> lock(mu_);
    all_done_.wait(lock, [this] { return producers_left_ == 0; });
  }

  int64_t batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_, all_done_;
  std::deque<ColumnBatch> items_;
  size_t capacity_ = 1;
  int producers_left_ = 0;
  bool cancelled_ = false;
  Status status_;
  int64_t batches_ = 0;
};

/// Re-serialization point above a parallel region: Open launches one pool
/// task per plan instance; each task drains its instance into the bounded
/// queue, and the consumer thread pulls batches out in arrival order.
/// Batch *contents* are deterministic as a bag (every instance computes a
/// disjoint morsel partition of the same subtree); arrival order is not,
/// which is why order-sensitive operators (Sort/Top, correlated Apply)
/// always sit above the exchange.
///
/// Workers execute with private ExecContexts. When the parent execution is
/// instrumented, each worker also gets private StatsCollector/
/// MetricsRegistry shards; CloseImpl — which runs on the consumer thread
/// strictly after every producer finished — merges shards and the workers'
/// rows_produced back into the parent context. That keeps the stats
/// invariant TotalRowsOut == rows_produced exact in parallel mode without
/// any atomics on operator hot paths.
class ExchangeOp : public PhysicalOp {
 public:
  ExchangeOp(std::vector<PhysicalOpPtr> instances,
             std::vector<SharedRegionStatePtr> shared,
             std::vector<ColumnId> layout)
      : shared_(std::move(shared)) {
    layout_ = std::move(layout);
    for (PhysicalOpPtr& instance : instances) {
      children_.push_back(std::move(instance));
    }
  }

  ~ExchangeOp() override {
    // A plan can be destroyed without Close after a mid-execution error
    // (ExecuteToVector does not close a plan whose Open failed). Producers
    // hold `this`, so wind them down before members are destroyed. The
    // parent context may already be gone here; Shutdown never touches it.
    Shutdown();
  }

  Status OpenImpl(ExecContext* ctx) override {
    const int instances = static_cast<int>(children_.size());
    if (ctx->pool == nullptr) {
      return Status::Internal("parallel plan executed without a task pool");
    }
    if (ctx->pool->num_threads() < instances) {
      // A gang smaller than the pool is fine (idle threads steal); a gang
      // larger than the pool could deadlock on the build barriers.
      return Status::Internal("exchange gang exceeds task pool size");
    }
    // Re-open without an intervening Close (Volcano rebind convention):
    // wind down the previous gang completely before resetting any state
    // it might still touch.
    Shutdown();
    for (const SharedRegionStatePtr& state : shared_) state->Reset();
    queue_.Reset(instances, /*capacity=*/4 * static_cast<size_t>(instances));
    staging_.Clear();
    staging_pos_ = 0;
    parent_ctx_ = ctx;
    pool_ = ctx->pool;
    steals_at_open_ = pool_->steals();
    worker_rows_.assign(children_.size(), 0);
    const bool shard_instruments = ctx->instruments != nullptr;
    worker_stats_.clear();
    worker_metrics_.clear();
    if (shard_instruments) {
      worker_stats_.resize(children_.size());
      worker_metrics_.resize(children_.size());
    }
    worker_params_ = ctx->params;
    worker_batched_ = ctx->batched;
    worker_batch_size_ = ctx->batch_size;
    worker_morsel_rows_ = ctx->morsel_rows;
    worker_cancel_ = ctx->cancel;
    // Gang admission: concurrent queries may share this pool, and two
    // gangs splitting it deadlock on their build barriers. Holding the
    // slot for the gang's whole lifetime (released in Shutdown) keeps the
    // pool's deques single-gang. The wait polls the query's cancel token,
    // so a deadline fires even while parked behind another gang.
    ORQ_RETURN_IF_ERROR(pool_->AcquireGangSlot(ctx->cancel));
    running_ = true;
    for (size_t i = 0; i < children_.size(); ++i) {
      ctx->pool->Submit([this, i] { RunInstance(i); });
    }
    return Status::OK();
  }

  /// Row-mode consumer: decodes the queued batches one row at a time.
  Result<bool> NextImpl(ExecContext*, Row* row) override {
    while (staging_pos_ >= staging_.num_rows()) {
      staging_.Clear();
      staging_pos_ = 0;
      ORQ_ASSIGN_OR_RETURN(bool more, queue_.Pop(&staging_));
      if (!more) return false;
    }
    staging_.DecodeRow(staging_pos_++, row);
    return true;
  }

  /// Columnar consumer: hands each queued batch out whole.
  Status NextColumnsImpl(ExecContext*, ColumnBatch* out) override {
    return queue_.Pop(out).status();
  }

  void CloseImpl() override {
    Shutdown();
    staging_.Clear();
    staging_pos_ = 0;
    if (parent_ctx_ != nullptr) {
      for (int64_t rows : worker_rows_) parent_ctx_->rows_produced += rows;
      if (parent_ctx_->instruments != nullptr) {
        if (StatsCollector* stats = parent_ctx_->instruments->stats) {
          for (const StatsCollector& shard : worker_stats_) {
            stats->MergeFrom(shard);
          }
        }
        if (MetricsRegistry* m = parent_ctx_->instruments->metrics) {
          for (const MetricsRegistry& shard : worker_metrics_) {
            m->MergeFrom(shard);
          }
          m->Add(MetricCounter::kExchangeBatches, queue_.batches());
          m->Add(MetricCounter::kTaskSteals,
                 pool_->steals() - steals_at_open_);
        }
      }
      parent_ctx_ = nullptr;
    }
    worker_rows_.assign(worker_rows_.size(), 0);
    worker_stats_.clear();
    worker_metrics_.clear();
    // Release the merged hash tables / morsel cursors now rather than at
    // plan destruction.
    for (const SharedRegionStatePtr& state : shared_) state->Reset();
  }

  std::string name() const override {
    return "Exchange(" + std::to_string(children_.size()) + ")";
  }

 private:
  /// Producer body, run on a pool thread. Drains instance `i` into the
  /// queue with a private context; always signals ProducerDone, carrying
  /// the first error. Build barriers inside the instance complete even
  /// when the consumer cancels, because deposits happen during Open —
  /// before any Push — so a cancelled gang still winds down cleanly.
  void RunInstance(size_t i) {
    ExecContext wctx;
    wctx.params = worker_params_;
    wctx.batched = worker_batched_;
    wctx.batch_size = worker_batch_size_;
    wctx.morsel_rows = worker_morsel_rows_;
    // Every producer polls the same token, so a deadline or cancel stops
    // the whole gang; the first failing worker's status surfaces from Pop.
    wctx.cancel = worker_cancel_;
    ExecInstruments winstruments;
    if (!worker_stats_.empty()) {
      winstruments.stats = &worker_stats_[i];
      winstruments.metrics = &worker_metrics_[i];
      wctx.instruments = &winstruments;
    }
    PhysicalOp* op = children_[i].get();
    Status status = op->Open(&wctx);
    if (status.ok()) {
      status =
          wctx.batched ? ProduceColumns(op, &wctx) : ProduceRows(op, &wctx);
      op->Close();
    }
    worker_rows_[i] = wctx.rows_produced;
    queue_.ProducerDone(status);
  }

  /// Columnar producer: pulls the instance's batches and queues an owned,
  /// dense copy of each one's live rows — a pulled batch may view operator
  /// scratch that the instance's next pull overwrites.
  Status ProduceColumns(PhysicalOp* op, ExecContext* wctx) {
    ColumnBatch batch(wctx->batch_size);
    std::vector<uint32_t> live_rows;
    while (true) {
      ORQ_RETURN_IF_ERROR(op->NextColumns(wctx, &batch));
      const uint32_t live = batch.selected();
      if (live == 0) return Status::OK();
      live_rows.resize(live);
      for (uint32_t j = 0; j < live; ++j) live_rows[j] = batch.RowAt(j);
      ColumnBatch owned(wctx->batch_size);
      owned.ResizeCols(batch.num_cols());
      for (size_t c = 0; c < batch.num_cols(); ++c) {
        owned.col(c).GatherFrom(batch.col(c), live_rows.data(), live);
      }
      owned.set_num_rows(live);
      if (!queue_.Push(std::move(owned))) return Status::OK();  // cancelled
    }
  }

  /// Row-mode producer: pulls the instance row by row and queues each
  /// batch_size run of rows transposed into a batch.
  Status ProduceRows(PhysicalOp* op, ExecContext* wctx) {
    std::vector<Row> rows(static_cast<size_t>(wctx->batch_size));
    while (true) {
      size_t n = 0;
      bool more = true;
      while (n < rows.size()) {
        ORQ_ASSIGN_OR_RETURN(more, op->Next(wctx, &rows[n]));
        if (!more) break;
        ++n;
      }
      if (n > 0) {
        ColumnBatch owned(wctx->batch_size);
        ORQ_RETURN_IF_ERROR(owned.SetRows(
            rows.data(), static_cast<uint32_t>(n), op->layout().size()));
        if (!queue_.Push(std::move(owned))) return Status::OK();  // cancelled
      }
      if (!more) return Status::OK();
    }
  }

  /// Idempotent producer wind-down: cancel the queue so blocked Pushes
  /// return, then wait until every producer task has signalled done.
  void Shutdown() {
    if (!running_) return;
    queue_.Cancel();
    queue_.WaitAllDone();
    running_ = false;
    pool_->ReleaseGangSlot();
  }

  std::vector<SharedRegionStatePtr> shared_;
  BatchQueue queue_;
  bool running_ = false;
  ExecContext* parent_ctx_ = nullptr;
  TaskPool* pool_ = nullptr;
  int64_t steals_at_open_ = 0;
  /// Context snapshot workers copy (captured at Open on the consumer
  /// thread; read-only afterwards).
  std::unordered_map<ColumnId, Value> worker_params_;
  bool worker_batched_ = true;
  int worker_batch_size_ = kDefaultBatchRows;
  int worker_morsel_rows_ = kDefaultMorselRows;
  const CancelToken* worker_cancel_ = nullptr;
  /// Per-worker output (rows_produced) and instrumentation shards; slot i
  /// is written only by producer i, and read only after WaitAllDone.
  std::vector<int64_t> worker_rows_;
  std::vector<StatsCollector> worker_stats_;
  std::vector<MetricsRegistry> worker_metrics_;
  /// Row-mode consumer staging: the batch currently being decoded.
  ColumnBatch staging_;
  uint32_t staging_pos_ = 0;
};

}  // namespace

PhysicalOpPtr MakeExchangeOp(std::vector<PhysicalOpPtr> instances,
                             std::vector<SharedRegionStatePtr> shared,
                             std::vector<ColumnId> layout) {
  return std::make_unique<ExchangeOp>(std::move(instances), std::move(shared),
                                      std::move(layout));
}

}  // namespace orq
