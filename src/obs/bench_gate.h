#ifndef ORQ_OBS_BENCH_GATE_H_
#define ORQ_OBS_BENCH_GATE_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace orq {

/// CI perf-regression gate policy for JSON-lines bench reports
/// (bench/baselines/BENCH_*.json vs a fresh `--json` run).
struct BenchGateOptions {
  /// A benchmark fails when current wall_ms exceeds baseline wall_ms by
  /// more than this factor. Speedups never fail; wall comparisons are
  /// skipped entirely when <= 0.
  double wall_tolerance = 1.4;
  /// Wall checks only apply when the baseline wall time is at least this
  /// many milliseconds: sub-millisecond benchmarks are noise-dominated in
  /// a short smoke run (one cold iteration blows any multiplicative
  /// tolerance), so only their row counts gate.
  double min_wall_ms = 0.5;
};

/// Outcome of one baseline-vs-current comparison. Row-count mismatches and
/// wall regressions are failures; benchmarks only present on one side are
/// notes for additions but failures for disappearances (a vanished
/// benchmark would otherwise silently shrink coverage).
struct BenchGateReport {
  int compared = 0;
  std::vector<std::string> notes;
  std::vector<std::string> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

/// Compares two JSON-lines bench reports (whole file contents, one JSON
/// object per line; blank lines ignored). Malformed JSON or a baseline
/// with no entries is an error, not a pass — a gate that cannot read its
/// baseline must not go green.
Result<BenchGateReport> CompareBenchJson(const std::string& baseline_jsonl,
                                         const std::string& current_jsonl,
                                         const BenchGateOptions& options);

/// Mode-vs-mode speedup gate over a single bench report: pairs every
/// entry whose name contains `slow_tag` with the same name under
/// `fast_tag` (e.g. "Columnar_GroupBy/row/20" paired with
/// "Columnar_GroupBy/columnar/20") and requires at least `min_pairs`
/// pairs to reach `min_ratio`. This is how ci.sh holds the columnar
/// engine to its promised speedup over row-at-a-time execution.
struct SpeedupGateOptions {
  std::string slow_tag = "/row/";
  std::string fast_tag = "/columnar/";
  /// slow wall_ms / fast wall_ms must reach this on min_pairs pairs.
  double min_ratio = 1.5;
  int min_pairs = 2;
  /// Pairs whose slow side runs under this floor are noise-dominated in
  /// a smoke window; they are reported as notes but never count for or
  /// against the gate.
  double min_wall_ms = 0.5;
};

/// Evaluates the speedup gate against one JSON-lines bench report. A
/// report with no eligible (slow, fast) pairs is an error, not a pass —
/// the gate must see the workloads it claims to hold.
Result<BenchGateReport> CheckSpeedupJson(const std::string& jsonl,
                                         const SpeedupGateOptions& options);

}  // namespace orq

#endif  // ORQ_OBS_BENCH_GATE_H_
