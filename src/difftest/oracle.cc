#include "difftest/oracle.h"

#include <algorithm>
#include <cstdio>

namespace orq {

EngineOptions NaiveReferenceOptions() {
  EngineOptions options;
  options.normalizer.remove_correlations = false;
  options.normalizer.decorrelate_class2 = false;
  options.normalizer.simplify_outerjoins = false;
  options.normalizer.pushdown_predicates = false;
  options.optimizer.enable = false;
  options.physical.use_hash_join = false;
  options.physical.use_index_seek = false;
  return options;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kMatch: return "match";
    case Verdict::kBothError: return "both-error";
    case Verdict::kCardinalityTolerated: return "cardinality-tolerated";
    case Verdict::kTimeoutTolerated: return "timeout-tolerated";
    case Verdict::kResultMismatch: return "RESULT-MISMATCH";
    case Verdict::kErrorMismatch: return "ERROR-MISMATCH";
    case Verdict::kTypeMismatch: return "TYPE-MISMATCH";
  }
  return "?";
}

namespace {

void AppendCanonicalValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->append("\xE2\x88\x85");  // ∅
    return;
  }
  switch (v.type()) {
    case DataType::kBool:
      out->append(v.bool_value() ? "T" : "F");
      break;
    case DataType::kInt64:
    case DataType::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // collapse -0.0
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.9g", d);
      out->append(buf);
      break;
    }
    case DataType::kDate: {
      out->append("d");
      out->append(std::to_string(v.date_value()));
      break;
    }
    case DataType::kString:
      out->append("'");
      out->append(v.string_value());
      out->append("'");
      break;
  }
}

}  // namespace

std::string CanonicalRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out.append("|");
    AppendCanonicalValue(row[i], &out);
  }
  return out;
}

std::string CheckColumnTypes(const QueryResult& result) {
  for (const Row& row : result.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].is_null() || row[c].type() == result.column_types[c]) continue;
      return "column " + std::to_string(c) + " (" +
             DataTypeName(result.column_types[c]) + ") holds " +
             DataTypeName(row[c].type()) + " " + CanonicalRow({row[c]});
    }
  }
  return "";
}

std::vector<std::string> CanonicalBag(const QueryResult& result) {
  std::vector<std::string> bag;
  bag.reserve(result.rows.size());
  for (const Row& row : result.rows) bag.push_back(CanonicalRow(row));
  std::sort(bag.begin(), bag.end());
  return bag;
}

namespace {

std::string DescribeBagDiff(const std::vector<std::string>& naive,
                            const std::vector<std::string>& full) {
  std::string detail = "naive rows=" + std::to_string(naive.size()) +
                       " full rows=" + std::to_string(full.size());
  // First rows present on one side only (bags are sorted).
  size_t i = 0, j = 0;
  int shown = 0;
  while ((i < naive.size() || j < full.size()) && shown < 6) {
    if (j >= full.size() || (i < naive.size() && naive[i] < full[j])) {
      detail += "\n  naive-only: " + naive[i++];
      ++shown;
    } else if (i >= naive.size() || full[j] < naive[i]) {
      detail += "\n  full-only:  " + full[j++];
      ++shown;
    } else {
      ++i;
      ++j;
    }
  }
  return detail;
}

}  // namespace

DualOutcome DualOracle::Run(const std::string& sql) {
  DualOutcome out;
  // Each side gets its own freshly armed deadline: the naive reference is
  // routinely orders of magnitude slower, and sharing one token would
  // charge the second side for the first side's spend.
  CancelToken naive_token;
  CancelToken full_token;
  ExecControl naive_control;
  ExecControl full_control;
  if (timeout_ms_ > 0) {
    naive_token.SetTimeoutMs(timeout_ms_);
    naive_control.cancel = &naive_token;
  }
  Result<QueryResult> naive = naive_.Execute(sql, naive_control);
  if (timeout_ms_ > 0) {
    full_token.SetTimeoutMs(timeout_ms_);
    full_control.cancel = &full_token;
  }
  Result<QueryResult> full = full_.Execute(sql, full_control);
  out.naive_status = naive.ok() ? Status::OK() : naive.status();
  out.full_status = full.ok() ? Status::OK() : full.status();

  if (!naive.ok() && !full.ok()) {
    out.verdict = Verdict::kBothError;
    return out;
  }
  if (naive.ok() != full.ok()) {
    const Status& err = naive.ok() ? out.full_status : out.naive_status;
    if (err.code() == StatusCode::kCardinalityViolation) {
      // Predicate evaluation order is unspecified; one plan may filter the
      // offending outer row away before its scalar subquery runs.
      out.verdict = Verdict::kCardinalityTolerated;
    } else if (err.code() == StatusCode::kDeadlineExceeded ||
               err.code() == StatusCode::kCancelled) {
      out.verdict = Verdict::kTimeoutTolerated;
    } else {
      out.verdict = Verdict::kErrorMismatch;
      out.detail = std::string(naive.ok() ? "full" : "naive") +
                   " failed: " + err.ToString();
    }
    return out;
  }

  for (const auto& [side, result] :
       {std::pair{"naive", &*naive}, std::pair{"full", &*full}}) {
    std::string mismatch = CheckColumnTypes(*result);
    if (!mismatch.empty()) {
      out.verdict = Verdict::kTypeMismatch;
      out.detail = std::string(side) + ": " + mismatch;
      return out;
    }
  }
  out.naive_bag = CanonicalBag(*naive);
  out.full_bag = CanonicalBag(*full);
  if (out.naive_bag == out.full_bag) {
    out.verdict = Verdict::kMatch;
  } else {
    out.verdict = Verdict::kResultMismatch;
    out.detail = DescribeBagDiff(out.naive_bag, out.full_bag);
  }
  return out;
}

}  // namespace orq
