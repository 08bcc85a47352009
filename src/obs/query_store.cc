#include "obs/query_store.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace orq {

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk: return "ok";
    case QueryOutcome::kError: return "error";
    case QueryOutcome::kCancelled: return "cancelled";
    case QueryOutcome::kDeadline: return "deadline";
    case QueryOutcome::kRejected: return "rejected";
  }
  return "unknown";
}

QueryOutcome OutcomeForStatus(const Status& status) {
  if (status.ok()) return QueryOutcome::kOk;
  switch (status.code()) {
    case StatusCode::kCancelled: return QueryOutcome::kCancelled;
    case StatusCode::kDeadlineExceeded: return QueryOutcome::kDeadline;
    case StatusCode::kUnavailable: return QueryOutcome::kRejected;
    default: return QueryOutcome::kError;
  }
}

QueryStore::QueryStore(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {
  ring_.reserve(capacity_);
}

void QueryStore::Record(QueryRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::vector<QueryRecord> QueryStore::Tail(size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = std::min(limit, ring_.size());
  std::vector<QueryRecord> out;
  out.reserve(count);
  // `next_` is one past the most recent record (mod size while filling).
  size_t slot = ring_.size() < capacity_ ? ring_.size() : next_;
  for (size_t i = 0; i < count; ++i) {
    slot = (slot + ring_.size() - 1) % ring_.size();
    out.push_back(ring_[slot]);
  }
  return out;
}

size_t QueryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

int64_t QueryStore::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

namespace {

const char* CacheOutcomeName(CacheOutcome cache) {
  switch (cache) {
    case CacheOutcome::kOff: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
  }
  return "unknown";
}

void AppendStringField(const char* key, const std::string& value,
                       std::string* out) {
  out->push_back('"');
  *out += key;
  *out += "\":";
  AppendJsonString(value, out);
}

void AppendIntField(const char* key, int64_t value, std::string* out) {
  out->push_back('"');
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
}

}  // namespace

std::string QueryRecordJson(const QueryRecord& record) {
  std::string out = "{";
  AppendStringField("query_id", record.query_id, &out);
  out.push_back(',');
  AppendIntField("session", record.session_id, &out);
  out.push_back(',');
  AppendStringField("sql", record.sql, &out);
  out.push_back(',');
  AppendStringField("fingerprint", record.fingerprint, &out);
  out.push_back(',');
  AppendStringField("exec_mode", record.exec_mode, &out);
  out.push_back(',');
  AppendStringField("cache", CacheOutcomeName(record.profile.cache), &out);
  out.push_back(',');
  AppendStringField("outcome", QueryOutcomeName(record.outcome), &out);
  if (!record.error_message.empty()) {
    out.push_back(',');
    AppendStringField("error", record.error_message, &out);
  }
  out.push_back(',');
  AppendIntField("submit_nanos", record.submit_nanos, &out);
  out.push_back(',');
  AppendIntField("admission_wait_us", record.admission_wait_us, &out);
  out.push_back(',');
  AppendIntField("wall_micros", record.wall_micros, &out);
  out.push_back(',');
  AppendIntField("result_rows", record.result_rows, &out);
  out.push_back(',');
  AppendIntField("rows_produced", record.rows_produced, &out);
  out.push_back(',');
  AppendIntField("peak_cardinality", record.peak_cardinality, &out);
  out += ",\"profile\":";
  out += ProfileToJson(record.profile);
  if (record.has_plan) {
    out += ",\"plan\":";
    out += PlanStatsToJson(record.plan);
  }
  if (!record.slow_explain.empty()) {
    out.push_back(',');
    AppendStringField("slow_explain", record.slow_explain, &out);
  }
  out.push_back('}');
  return out;
}

std::string QueryHistoryJson(const std::vector<QueryRecord>& records,
                             int64_t total_recorded, size_t capacity) {
  std::string out = "{";
  AppendIntField("total_recorded", total_recorded, &out);
  out.push_back(',');
  AppendIntField("capacity", static_cast<int64_t>(capacity), &out);
  out.push_back(',');
  AppendIntField("returned", static_cast<int64_t>(records.size()), &out);
  out += ",\"queries\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += QueryRecordJson(records[i]);
  }
  out += "]}";
  return out;
}

int64_t MaxPeakCardinality(const PlanStatsNode& node) {
  int64_t peak = node.stats.peak_cardinality;
  for (const PlanStatsNode& child : node.children) {
    peak = std::max(peak, MaxPeakCardinality(child));
  }
  return peak;
}

std::string FingerprintHex(const std::string& data) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

}  // namespace orq
