#include "span_log.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/json.h"

namespace orq::bench {

int SpanLog::Begin(const char* name, int64_t query) {
  Span span;
  span.name = name;
  span.query = query;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_nanos = ObsNowNanos();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_nanos = ObsNowNanos();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanLog::Add(const char* name, int64_t start_nanos, int64_t end_nanos,
                 int parent, int64_t query) {
  Span span;
  span.name = name;
  span.start_nanos = start_nanos;
  span.end_nanos = end_nanos;
  span.parent = parent;
  span.query = query;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> SpanLog::SelfNanos() const {
  // Children's intervals, clipped to the parent and merged, so overlapping
  // children are not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_nanos, parent.start_nanos);
    const int64_t hi = std::min(span.end_nanos, parent.end_nanos);
    if (hi > lo) covered[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t children = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : parts) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) children += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans_[i].end_nanos - spans_[i].start_nanos - children;
  }
  return self;
}

Status SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::Internal("cannot open " + path);
  std::string line;
  for (const Span& span : spans_) {
    line = "{\"name\":";
    AppendJsonString(span.name, &line);
    line += ",\"start_nanos\":" + std::to_string(span.start_nanos) +
            ",\"end_nanos\":" + std::to_string(span.end_nanos) +
            ",\"parent\":" + std::to_string(span.parent) +
            ",\"query\":" + std::to_string(span.query) + "}\n";
    std::fputs(line.c_str(), file);
  }
  return std::fclose(file) == 0 ? Status::OK()
                                : Status::Internal("cannot write " + path);
}

}  // namespace orq::bench
