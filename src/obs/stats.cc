#include "obs/stats.h"

namespace orq {

const OpStats* StatsCollector::Find(const void* op) const {
  auto it = stats_.find(op);
  return it == stats_.end() ? nullptr : &it->second;
}

void StatsCollector::MergeFrom(const StatsCollector& other) {
  for (const auto& [op, theirs] : other.stats_) {
    OpStats& ours = stats_[op];
    ours.open_calls += theirs.open_calls;
    ours.next_calls += theirs.next_calls;
    ours.close_calls += theirs.close_calls;
    ours.rows_out += theirs.rows_out;
    ours.wall_nanos += theirs.wall_nanos;
    if (theirs.peak_cardinality > ours.peak_cardinality) {
      ours.peak_cardinality = theirs.peak_cardinality;
    }
    ours.batch_slots += theirs.batch_slots;
    ours.column_batches += theirs.column_batches;
  }
}

int64_t StatsCollector::TotalRowsOut() const {
  int64_t total = 0;
  for (const auto& [op, stats] : stats_) total += stats.rows_out;
  return total;
}

}  // namespace orq
