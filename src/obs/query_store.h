#ifndef ORQ_OBS_QUERY_STORE_H_
#define ORQ_OBS_QUERY_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/profile.h"
#include "obs/report.h"

namespace orq {

/// How a query left the server. `kDeadline` and `kCancelled` both surface
/// as StatusCode::kCancelled/kDeadlineExceeded on the wire; `kRejected`
/// covers queries the admission controller never let run.
enum class QueryOutcome : int {
  kOk = 0,
  kError,
  kCancelled,
  kDeadline,
  kRejected,
};

const char* QueryOutcomeName(QueryOutcome outcome);
QueryOutcome OutcomeForStatus(const Status& status);

/// Lock-free progress snapshot shared between a running query and the
/// introspection path (`\queries`). The executor publishes rows produced
/// from its cancel-check throttle; phase indices follow QueryPhase, with
/// -1 meaning the query is still queued in admission. Both sides use
/// relaxed atomics — a slightly stale read is fine, a torn one is not.
struct ProgressSink {
  std::atomic<int64_t> rows{0};
  std::atomic<int> phase{-1};
};

/// Everything the server remembers about one completed (or rejected)
/// query. The fingerprint is the FNV-1a hash of the plan's canonical
/// serialization — the same string the plan cache keys on — so records
/// aggregate across literal variants of one query shape (the substrate
/// ROADMAP item 4's cardinality feedback consumes).
struct QueryRecord {
  std::string query_id;
  int session_id = 0;
  std::string sql;
  std::string fingerprint;
  std::string exec_mode;  // "columnar" | "row"
  QueryOutcome outcome = QueryOutcome::kOk;
  std::string error_message;
  int64_t submit_nanos = 0;   // ObsNowNanos timeline
  /// Time spent inside AdmissionController::Admit, queued for a run slot.
  int64_t admission_wait_us = 0;
  int64_t wall_micros = 0;    // admission wait + compile + execute
  int64_t result_rows = 0;
  int64_t rows_produced = 0;
  int64_t peak_cardinality = 0;  // max over the plan's operators
  QueryProfile profile;
  bool has_plan = false;
  PlanStatsNode plan;  // est-vs-actual rows per operator, when has_plan
  /// Full EXPLAIN ANALYZE text, captured only when the query's wall time
  /// crossed the session's slow_query_ms threshold.
  std::string slow_explain;
};

/// Bounded ring buffer of completed queries, shared by all connection
/// threads. Overwrites the oldest record once full; `Tail` returns the
/// newest records (most recent first). Copies records out under the lock
/// so readers never hold references into the ring.
class QueryStore {
 public:
  explicit QueryStore(size_t capacity);

  void Record(QueryRecord record);

  /// Up to `limit` most recent records, newest first.
  std::vector<QueryRecord> Tail(size_t limit) const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Total records ever written (size() caps at capacity, this does not).
  int64_t total_recorded() const;

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  std::vector<QueryRecord> ring_;  // grows to capacity_, then wraps
  size_t next_ = 0;                // slot the next record overwrites
  int64_t total_ = 0;
};

/// One record as a JSON object (plan/slow_explain fields only when
/// present); `QueryHistoryJson` wraps a Tail() result with ring totals.
std::string QueryRecordJson(const QueryRecord& record);
std::string QueryHistoryJson(const std::vector<QueryRecord>& records,
                             int64_t total_recorded, size_t capacity);

/// Max peak_cardinality over the stats tree.
int64_t MaxPeakCardinality(const PlanStatsNode& node);

/// 16-hex-digit FNV-1a 64 of `data` — the plan fingerprint rendering.
std::string FingerprintHex(const std::string& data);

}  // namespace orq

#endif  // ORQ_OBS_QUERY_STORE_H_
