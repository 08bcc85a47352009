// Tests for the CI perf-regression gate (obs/bench_gate.h): baseline vs
// current JSON-lines comparison, including the injected-regression case the
// gate exists to catch.
#include <gtest/gtest.h>

#include <string>

#include "obs/bench_gate.h"

namespace orq {
namespace {

const char kBaseline[] =
    "{\"name\":\"bench_q2/5\",\"iterations\":10,\"wall_ms\":2.0,"
    "\"result_rows\":44,\"rows_produced\":9000,\"error\":false}\n"
    "{\"name\":\"bench_q17/5\",\"iterations\":10,\"wall_ms\":5.0,"
    "\"result_rows\":1,\"rows_produced\":12000,\"error\":false}\n";

TEST(BenchGateTest, IdenticalRunsPass) {
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, kBaseline, BenchGateOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->compared, 2);
  EXPECT_TRUE(report->failures.empty());
}

TEST(BenchGateTest, InjectedWallRegressionFails) {
  // 2.0ms -> 3.0ms is a 1.5x regression: over the default 1.4x tolerance.
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":3.0,"
      "\"result_rows\":44,\"rows_produced\":9000,\"error\":false}\n"
      "{\"name\":\"bench_q17/5\",\"wall_ms\":5.0,"
      "\"result_rows\":1,\"rows_produced\":12000,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_NE(report->failures[0].find("bench_q2/5"), std::string::npos);
  EXPECT_NE(report->failures[0].find("wall regression"), std::string::npos);
  // A looser tolerance lets the same run pass; <=0 disables wall checks.
  BenchGateOptions loose;
  loose.wall_tolerance = 2.0;
  EXPECT_TRUE(CompareBenchJson(kBaseline, current, loose)->ok());
  BenchGateOptions disabled;
  disabled.wall_tolerance = 0.0;
  EXPECT_TRUE(CompareBenchJson(kBaseline, current, disabled)->ok());
}

TEST(BenchGateTest, SpeedupsNeverFail) {
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":0.2,"
      "\"result_rows\":44,\"rows_produced\":9000,\"error\":false}\n"
      "{\"name\":\"bench_q17/5\",\"wall_ms\":0.5,"
      "\"result_rows\":1,\"rows_produced\":12000,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(BenchGateTest, RowCountMismatchFailsRegardlessOfTolerance) {
  // Wall time identical but the query now returns different rows: a
  // correctness change, gated exactly (no tolerance applies).
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":2.0,"
      "\"result_rows\":45,\"rows_produced\":9000,\"error\":false}\n"
      "{\"name\":\"bench_q17/5\",\"wall_ms\":5.0,"
      "\"result_rows\":1,\"rows_produced\":11999,\"error\":false}\n";
  BenchGateOptions disabled;
  disabled.wall_tolerance = 0.0;
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, current, disabled);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->failures.size(), 2u);
  EXPECT_NE(report->failures[0].find("result_rows"), std::string::npos);
  EXPECT_NE(report->failures[1].find("rows_produced"), std::string::npos);
}

TEST(BenchGateTest, MissingAndErroredBenchmarksFail) {
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":2.0,"
      "\"result_rows\":44,\"rows_produced\":9000,\"error\":true}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  // q2 errored; q17 vanished from the current run.
  ASSERT_EQ(report->failures.size(), 2u);
  EXPECT_NE(report->failures[0].find("errored"), std::string::npos);
  EXPECT_NE(report->failures[1].find("missing from current"),
            std::string::npos);
}

TEST(BenchGateTest, NewBenchmarksAreNotesNotFailures) {
  const std::string current = std::string(kBaseline) +
      "{\"name\":\"bench_new/5\",\"wall_ms\":1.0,"
      "\"result_rows\":3,\"rows_produced\":100,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  ASSERT_EQ(report->notes.size(), 1u);
  EXPECT_NE(report->notes[0].find("bench_new/5"), std::string::npos);
}

TEST(BenchGateTest, AbsentCountersSkipExactChecks) {
  // Baselines that predate a counter must not fail when the current run
  // reports it (and vice versa).
  const std::string old_baseline =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":2.0,\"error\":false}\n";
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":2.1,"
      "\"result_rows\":44,\"rows_produced\":9000,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(old_baseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(BenchGateTest, UnreadableBaselineIsAnErrorNotAPass) {
  Result<BenchGateReport> malformed =
      CompareBenchJson("not json\n", kBaseline, BenchGateOptions{});
  EXPECT_FALSE(malformed.ok());
  Result<BenchGateReport> empty =
      CompareBenchJson("\n\n", kBaseline, BenchGateOptions{});
  EXPECT_FALSE(empty.ok());
  Result<BenchGateReport> malformed_current =
      CompareBenchJson(kBaseline, "{\"name\":\n", BenchGateOptions{});
  EXPECT_FALSE(malformed_current.ok());
}

TEST(BenchGateTest, SubMillisecondBaselinesSkipWallChecks) {
  // 0.1ms -> 1.0ms is a 10x "regression" but entirely noise at this
  // scale in a smoke run; row counts still gate exactly.
  const std::string baseline =
      "{\"name\":\"bench_tiny/1\",\"wall_ms\":0.1,"
      "\"result_rows\":3,\"rows_produced\":50,\"error\":false}\n";
  const std::string current =
      "{\"name\":\"bench_tiny/1\",\"wall_ms\":1.0,"
      "\"result_rows\":3,\"rows_produced\":50,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(baseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  // Lowering the floor re-arms the wall check.
  BenchGateOptions strict;
  strict.min_wall_ms = 0.0;
  EXPECT_FALSE(CompareBenchJson(baseline, current, strict)->ok());
}

TEST(BenchGateTest, BothSidesErroringIsToleratedAsKnownLimitation) {
  const std::string both =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":0,\"error\":true}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(both, both, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
  ASSERT_EQ(report->notes.size(), 1u);
  EXPECT_NE(report->notes[0].find("errors in baseline and current"),
            std::string::npos);
}

TEST(BenchGateTest, BaselineErrorNowPassingIsANote) {
  const std::string baseline =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":0,\"error\":true}\n";
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":2.0,"
      "\"result_rows\":44,\"rows_produced\":9000,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(baseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok());
  ASSERT_EQ(report->notes.size(), 1u);
  EXPECT_NE(report->notes[0].find("now passes"), std::string::npos);
}

TEST(BenchGateTest, SummaryNamesEveryFailure) {
  const std::string current =
      "{\"name\":\"bench_q2/5\",\"wall_ms\":30.0,"
      "\"result_rows\":44,\"rows_produced\":9000,\"error\":false}\n"
      "{\"name\":\"bench_q17/5\",\"wall_ms\":5.0,"
      "\"result_rows\":1,\"rows_produced\":12000,\"error\":false}\n";
  Result<BenchGateReport> report =
      CompareBenchJson(kBaseline, current, BenchGateOptions{});
  ASSERT_TRUE(report.ok());
  const std::string summary = report->Summary();
  EXPECT_NE(summary.find("compared=2"), std::string::npos);
  EXPECT_NE(summary.find("failures=1"), std::string::npos);
  EXPECT_NE(summary.find("FAIL bench_q2/5"), std::string::npos);
}

// One report with row/columnar twins for two workloads plus a third mode
// that the speedup gate must ignore.
const char kModeReport[] =
    "{\"name\":\"Columnar_A/encoded/20\",\"wall_ms\":3.0,\"error\":false}\n"
    "{\"name\":\"Columnar_A/row/20\",\"wall_ms\":20.0,\"error\":false}\n"
    "{\"name\":\"Columnar_A/columnar/20\",\"wall_ms\":5.0,\"error\":false}\n"
    "{\"name\":\"Columnar_B/row/20\",\"wall_ms\":9.0,\"error\":false}\n"
    "{\"name\":\"Columnar_B/columnar/20\",\"wall_ms\":4.0,\"error\":false}\n";

TEST(SpeedupGateTest, PassesWhenEnoughPairsReachTheRatio) {
  // A is 4.0x, B is 2.25x: both clear the default 1.5x, min_pairs=2.
  Result<BenchGateReport> report =
      CheckSpeedupJson(kModeReport, SpeedupGateOptions{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_EQ(report->compared, 2);
}

TEST(SpeedupGateTest, FailsWhenTooFewPairsReachTheRatio) {
  // Demanding 3.0x leaves only A (4.0x); B (2.25x) falls short.
  SpeedupGateOptions strict;
  strict.min_ratio = 3.0;
  Result<BenchGateReport> report = CheckSpeedupJson(kModeReport, strict);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  ASSERT_EQ(report->failures.size(), 1u);
  EXPECT_NE(report->failures[0].find("only 1 of 2 pairs"),
            std::string::npos);
}

TEST(SpeedupGateTest, MissingCounterpartIsAFailure) {
  const std::string orphan =
      "{\"name\":\"Columnar_A/row/20\",\"wall_ms\":20.0,"
      "\"error\":false}\n";
  Result<BenchGateReport> report =
      CheckSpeedupJson(orphan, SpeedupGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_NE(report->failures[0].find("no /columnar/ counterpart"),
            std::string::npos);
}

TEST(SpeedupGateTest, NoEligiblePairsIsAnErrorNotAPass) {
  // A report with none of the gated modes (e.g. pointing the gate at the
  // wrong BENCH_*.json) must not silently succeed.
  const std::string unrelated =
      "{\"name\":\"Fig8/Q1/full/5\",\"wall_ms\":2.0,\"error\":false}\n";
  Result<BenchGateReport> report =
      CheckSpeedupJson(unrelated, SpeedupGateOptions{});
  EXPECT_FALSE(report.ok());
}

TEST(SpeedupGateTest, NoiseFlooredPairsDoNotCount) {
  // Both slow sides under the 0.5ms floor: nothing eligible, so the gate
  // errors rather than passing on noise.
  const std::string tiny =
      "{\"name\":\"Columnar_A/row/1\",\"wall_ms\":0.1,\"error\":false}\n"
      "{\"name\":\"Columnar_A/columnar/1\",\"wall_ms\":0.01,"
      "\"error\":false}\n";
  Result<BenchGateReport> report =
      CheckSpeedupJson(tiny, SpeedupGateOptions{});
  EXPECT_FALSE(report.ok());
}

TEST(SpeedupGateTest, ErroredModeRunsFailTheGate) {
  const std::string errored =
      "{\"name\":\"Columnar_A/row/20\",\"wall_ms\":20.0,"
      "\"error\":false}\n"
      "{\"name\":\"Columnar_A/columnar/20\",\"wall_ms\":0,"
      "\"error\":true}\n";
  Result<BenchGateReport> report =
      CheckSpeedupJson(errored, SpeedupGateOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_NE(report->failures[0].find("errored"), std::string::npos);
}

}  // namespace
}  // namespace orq
