#ifndef ORQ_BENCH_E2E_SPAN_LOG_H_
#define ORQ_BENCH_E2E_SPAN_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/stats.h"

namespace orq::bench {

/// One timed interval at a layer boundary, on the ObsNowNanos timeline.
/// Spans of one query share `query`; `parent` indexes the enclosing span
/// (-1 for a query's root).
struct Span {
  const char* name = "";  // a string literal: layer names are fixed
  int64_t start_nanos = 0;
  int64_t end_nanos = 0;
  int parent = -1;
  int64_t query = 0;
};

/// In-memory span store for the traced run: spans are recorded around the
/// benchmark's calls into each layer and written out once, at exit, so the
/// only cost on the measured path is two clock reads and a vector push.
/// Single-threaded: the traced in-process pass runs on one thread.
class SpanLog {
 public:
  /// Opens a span nested under the innermost open span.
  int Begin(const char* name, int64_t query);
  void End(int id);
  /// Records an already-finished interval under `parent` (phases the
  /// engine timed itself, read back from a QueryObservation).
  int Add(const char* name, int64_t start_nanos, int64_t end_nanos,
          int parent, int64_t query);

  const std::deque<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the part of it its children cover.
  std::vector<int64_t> SelfNanos() const;

  /// One JSON object per line: name, start/end nanos, parent, query.
  Status WriteJsonLines(const std::string& path) const;

 private:
  // A deque: growing it never copies the spans already recorded, so no
  // span pays for a reallocation of the whole log.
  std::deque<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t query)
      : log_(log), id_(log->Begin(name, query)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace orq::bench

#endif  // ORQ_BENCH_E2E_SPAN_LOG_H_
