#ifndef ORQ_OBS_STATS_H_
#define ORQ_OBS_STATS_H_

#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace orq {

/// Monotonic wall clock used by all runtime instrumentation.
inline int64_t ObsNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runtime counters for one physical operator instance. Wall time is
/// *inclusive*: the operator's Open/Next/Close intervals contain the time
/// its children spend inside those calls (reporting derives self time by
/// subtracting the children's inclusive totals).
struct OpStats {
  int64_t open_calls = 0;
  /// Pull calls into the operator: one per Next on the row path, one per
  /// NextColumns on the columnar path — so next_calls and rows_out diverge
  /// by roughly the batch size on the columnar path.
  int64_t next_calls = 0;
  int64_t close_calls = 0;
  /// Rows this operator returned from Next/NextColumns (correlated
  /// re-executions accumulate across re-opens; identical in both modes).
  int64_t rows_out = 0;
  int64_t wall_nanos = 0;
  /// Largest materialized state the operator held at once: hash-join table
  /// buckets' rows, aggregation groups, sort buffer rows, spooled inner
  /// rows, segment count. Zero for streaming operators.
  int64_t peak_cardinality = 0;
  /// Capacity offered across all non-empty NextColumns pulls (batch size x
  /// pulls). rows_out counts selected rows, so rows_out / batch_slots is
  /// the operator's selection-vector density. Zero on the row path.
  int64_t batch_slots = 0;
  /// Non-empty column batches this operator produced; nonzero marks the
  /// operator as having run columnar.
  int64_t column_batches = 0;
};

/// Owns the per-operator stats of one execution. Operators are identified
/// by address; the collector never dereferences them, so it can outlive the
/// plan only as an opaque map (reporting walks the live plan tree while
/// looking entries up here). Collection is opt-in: executions that do not
/// attach a collector to their ExecContext pay a single null check per
/// operator call.
class StatsCollector {
 public:
  /// Entry for `op`, created on first touch. The pointer stays valid for
  /// the collector's lifetime (node handles are stable under rehash).
  OpStats* StatsFor(const void* op) { return &stats_[op]; }

  /// Entry for `op`, or nullptr if the operator never opened.
  const OpStats* Find(const void* op) const;

  /// Sum of rows_out over all operators — by construction equal to the
  /// engine's `rows_produced` work metric for the same execution.
  int64_t TotalRowsOut() const;

  /// Adds every entry of `other` into this collector, entry-wise (counter
  /// sums; peak_cardinality by max). Parallel execution gives each worker a
  /// private collector shard and merges them here on the consumer thread
  /// after all workers finished — no operator map is ever touched from two
  /// threads.
  void MergeFrom(const StatsCollector& other);

  bool empty() const { return stats_.empty(); }
  size_t size() const { return stats_.size(); }
  void clear() { stats_.clear(); }

 private:
  std::unordered_map<const void*, OpStats> stats_;
};

}  // namespace orq

#endif  // ORQ_OBS_STATS_H_
