#include "obs/metrics.h"

#include <bit>
#include <cstdio>

#include "obs/json.h"

namespace orq {

const char* MetricCounterName(MetricCounter counter) {
  switch (counter) {
    case MetricCounter::kHashJoinBuildRows: return "hash_join.build_rows";
    case MetricCounter::kHashJoinBuckets: return "hash_join.buckets";
    case MetricCounter::kHashJoinArenaBytes: return "hash_join.arena_bytes";
    case MetricCounter::kHashJoinProbes: return "hash_join.probes";
    case MetricCounter::kHashAggInputRows: return "hash_agg.input_rows";
    case MetricCounter::kHashAggGroups: return "hash_agg.groups";
    case MetricCounter::kSpoolRows: return "spool.rows";
    case MetricCounter::kApplyInnerOpens: return "apply.inner_opens";
    case MetricCounter::kSegmentInnerOpens: return "segment.inner_opens";
    case MetricCounter::kInnerCacheReplays: return "spool.cache_replays";
    case MetricCounter::kExchangeBatches: return "exchange.batches";
    case MetricCounter::kMorselsClaimed: return "exchange.morsels";
    case MetricCounter::kTaskSteals: return "exchange.task_steals";
    case MetricCounter::kServerSessionsOpened: return "server.sessions_opened";
    case MetricCounter::kServerQueriesOk: return "server.queries_ok";
    case MetricCounter::kServerQueriesError: return "server.queries_error";
    case MetricCounter::kServerQueriesRejected:
      return "server.queries_rejected";
    case MetricCounter::kServerQueriesTimedOut:
      return "server.queries_timed_out";
    case MetricCounter::kPlanCacheHits: return "plan_cache.hits";
    case MetricCounter::kPlanCacheMisses: return "plan_cache.misses";
    case MetricCounter::kPlanCacheEvictions: return "plan_cache.evictions";
    case MetricCounter::kColumnBatches: return "columnar.batches";
  }
  return "unknown";
}

const char* MetricHistogramName(MetricHistogram histogram) {
  switch (histogram) {
    case MetricHistogram::kHashJoinChainLength:
      return "hash_join.probe_chain";
    case MetricHistogram::kHashJoinBucketRows:
      return "hash_join.bucket_rows";
    case MetricHistogram::kHashAggBucketChain:
      return "hash_agg.bucket_chain";
    case MetricHistogram::kBatchFillPercent:
      return "batch.fill_percent";
    case MetricHistogram::kAdmissionQueueDepth:
      return "server.admission_queue_depth";
    case MetricHistogram::kQueryLatencyMicros:
      return "server.query_latency_micros";
    case MetricHistogram::kSelVectorSelectivity:
      return "columnar.sel_selectivity";
  }
  return "unknown";
}

namespace {

/// Bucket i holds values <= 2^i; the last bucket is the overflow. Values
/// below zero clamp to bucket 0.
int BucketIndex(int64_t value) {
  if (value <= 1) return 0;
  const int bits = std::bit_width(static_cast<uint64_t>(value - 1));
  return bits < kMetricHistogramBuckets ? bits : kMetricHistogramBuckets - 1;
}

int64_t BucketUpperBound(int index) { return int64_t{1} << index; }

}  // namespace

void MetricsRegistry::Observe(MetricHistogram histogram, int64_t value) {
  HistogramData& data = histograms_[static_cast<int>(histogram)];
  ++data.count;
  data.sum += value;
  if (value > data.max) data.max = value;
  ++data.buckets[BucketIndex(value)];
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (int i = 0; i < kNumMetricCounters; ++i) {
    counters_[i] += other.counters_[i];
  }
  for (int i = 0; i < kNumMetricHistograms; ++i) {
    HistogramData& ours = histograms_[i];
    const HistogramData& theirs = other.histograms_[i];
    ours.count += theirs.count;
    ours.sum += theirs.sum;
    if (theirs.max > ours.max) ours.max = theirs.max;
    for (int b = 0; b < kMetricHistogramBuckets; ++b) {
      ours.buckets[b] += theirs.buckets[b];
    }
  }
}

bool MetricsRegistry::empty() const {
  for (int64_t c : counters_) {
    if (c != 0) return false;
  }
  for (const HistogramData& h : histograms_) {
    if (h.count != 0) return false;
  }
  return true;
}

void MetricsRegistry::clear() { *this = MetricsRegistry(); }

std::string RenderMetrics(const MetricsRegistry& metrics) {
  std::string out;
  char line[192];
  for (int i = 0; i < kNumMetricCounters; ++i) {
    const MetricCounter counter = static_cast<MetricCounter>(i);
    if (metrics.counter(counter) == 0) continue;
    std::snprintf(line, sizeof(line), "  %-24s %lld\n",
                  MetricCounterName(counter),
                  static_cast<long long>(metrics.counter(counter)));
    out += line;
  }
  for (int i = 0; i < kNumMetricHistograms; ++i) {
    const MetricHistogram histogram = static_cast<MetricHistogram>(i);
    const HistogramData& data = metrics.histogram(histogram);
    if (data.count == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  %-24s count=%lld mean=%.2f max=%lld buckets[",
                  MetricHistogramName(histogram),
                  static_cast<long long>(data.count), data.Mean(),
                  static_cast<long long>(data.max));
    out += line;
    bool first = true;
    for (int b = 0; b < kMetricHistogramBuckets; ++b) {
      if (data.buckets[b] == 0) continue;
      if (!first) out += ' ';
      first = false;
      if (b == kMetricHistogramBuckets - 1) {
        std::snprintf(line, sizeof(line), "inf:%lld",
                      static_cast<long long>(data.buckets[b]));
      } else {
        std::snprintf(line, sizeof(line), "<=%lld:%lld",
                      static_cast<long long>(BucketUpperBound(b)),
                      static_cast<long long>(data.buckets[b]));
      }
      out += line;
    }
    out += "]\n";
  }
  return out;
}

std::string MetricsToJson(const MetricsRegistry& metrics) {
  std::string out = "{\"counters\":{";
  for (int i = 0; i < kNumMetricCounters; ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(MetricCounterName(static_cast<MetricCounter>(i)), &out);
    out.push_back(':');
    out += std::to_string(metrics.counter(static_cast<MetricCounter>(i)));
  }
  out += "},\"histograms\":[";
  for (int i = 0; i < kNumMetricHistograms; ++i) {
    if (i > 0) out.push_back(',');
    const HistogramData& data =
        metrics.histogram(static_cast<MetricHistogram>(i));
    out += "{\"name\":";
    AppendJsonString(MetricHistogramName(static_cast<MetricHistogram>(i)),
                     &out);
    out += ",\"count\":" + std::to_string(data.count);
    out += ",\"sum\":" + std::to_string(data.sum);
    out += ",\"max\":" + std::to_string(data.max);
    out += ",\"buckets\":[";
    bool first = true;
    for (int b = 0; b < kMetricHistogramBuckets; ++b) {
      if (data.buckets[b] == 0) continue;
      if (!first) out.push_back(',');
      first = false;
      out += "{\"le\":";
      out += b == kMetricHistogramBuckets - 1
                 ? std::string("\"inf\"")
                 : std::to_string(BucketUpperBound(b));
      out += ",\"count\":" + std::to_string(data.buckets[b]);
      out.push_back('}');
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace orq
