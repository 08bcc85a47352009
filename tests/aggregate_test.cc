// The SUM contract and hash-aggregate emission. SumAccum (exec/sum_accum.h)
// sums doubles as an exact double-double that escalates to a wide sum only
// outside double range; these tests pin what that promises: one result,
// bit for bit, in every input order, batch size and execution mode
// (row, columnar, morsel-parallel), exact cancellation, overflow that
// recovers, IEEE special values, and exact int64 + double mixes. They also
// pin that a columnar aggregate column stays typed when its first group's
// value is NULL.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "exec/ops.h"
#include "exec/sum_accum.h"

namespace orq {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double SumOf(const std::vector<double>& values) {
  SumAccum acc;
  for (double v : values) acc.AddDouble(v);
  return acc.Finalize().double_value();
}

/// Every permutation of `values` sums to the same bits, and so does every
/// left-to-right merge of one-value accumulators (the parallel fold).
void ExpectAllOrders(std::vector<double> values, double want) {
  std::sort(values.begin(), values.end());
  do {
    EXPECT_EQ(Bits(SumOf(values)), Bits(want)) << values[0] << " first";
    SumAccum merged;
    for (double v : values) {
      SumAccum one;
      one.AddDouble(v);
      merged.Merge(one);
    }
    EXPECT_EQ(Bits(merged.Finalize().double_value()), Bits(want));
  } while (std::next_permutation(values.begin(), values.end()));
}

TEST(SumAccumTest, CancellationIsExact) {
  ExpectAllOrders({1e16, 1.0, -1e16}, 1.0);
  ExpectAllOrders({0.1, 0.2, -0.3}, SumOf({0.1, 0.2, -0.3}));
}

TEST(SumAccumTest, OverflowEscalatesAndRecovers) {
  ExpectAllOrders({DBL_MAX, DBL_MAX, -DBL_MAX}, DBL_MAX);
  ExpectAllOrders({-DBL_MAX, -DBL_MAX, DBL_MAX, 1.0}, -DBL_MAX);
  // A sum that really leaves double range is +inf, as in IEEE.
  EXPECT_EQ(SumOf({DBL_MAX, DBL_MAX}), kInf);
}

TEST(SumAccumTest, SpecialValuesPropagate) {
  EXPECT_EQ(SumOf({kInf, 1.0}), kInf);
  EXPECT_EQ(SumOf({1.0, -kInf}), -kInf);
  EXPECT_TRUE(std::isnan(SumOf({kInf, -kInf})));
  EXPECT_TRUE(std::isnan(SumOf({1.0, std::nan(""), 2.0})));
  // The sum starts at +0.0, so negative zeros sum to +0.0.
  EXPECT_EQ(Bits(SumOf({-0.0})), Bits(0.0));
  EXPECT_EQ(Bits(SumOf({-0.0, -0.0})), Bits(0.0));
}

TEST(SumAccumTest, IntegersStayIntegralAndMixExactly) {
  SumAccum ints;
  ints.AddInt(INT64_MAX);
  ints.AddInt(1);  // int64 SUM wraps
  EXPECT_EQ(ints.Finalize().type(), DataType::kInt64);
  EXPECT_EQ(ints.Finalize().int64_value(), INT64_MIN);
  // 2^53 + 1 + 0.5 rounds once, to 2^53 + 2; converting the integer to a
  // double first would lose the 1 and give 2^53.
  SumAccum mixed;
  mixed.AddInt((int64_t{1} << 53) + 1);
  mixed.AddDouble(0.5);
  EXPECT_EQ(mixed.Finalize().type(), DataType::kDouble);
  EXPECT_EQ(mixed.Finalize().double_value(), 9007199254740994.0);
  SumAccum big;
  big.AddInt(INT64_MAX);
  big.AddDouble(-0.25);
  EXPECT_EQ(big.Finalize().double_value(), 9223372036854775808.0);
}

TEST(SumAccumTest, LongSumsAreCorrectlyRounded) {
  // Dyadic inputs k / 128 whose exact total needs ~61 bits: the result
  // must be the exact total rounded once, in any order and any split.
  std::mt19937_64 rng(42);
  std::vector<double> values;
  int64_t total = 0;
  for (int i = 0; i < 2000; ++i) {
    const int64_t k = static_cast<int64_t>(rng() >> 14) - (int64_t{1} << 49);
    total += k;
    values.push_back(static_cast<double>(k) / 128.0);
  }
  const double want = static_cast<double>(total) / 128.0;
  for (int round = 0; round < 5; ++round) {
    std::shuffle(values.begin(), values.end(), rng);
    EXPECT_EQ(Bits(SumOf(values)), Bits(want));
    SumAccum merged;
    SumAccum part;
    for (size_t i = 0; i < values.size(); ++i) {
      part.AddDouble(values[i]);
      if (rng() % 97 == 0) {
        merged.Merge(part);
        part = SumAccum();
      }
    }
    merged.Merge(part);
    EXPECT_EQ(Bits(merged.Finalize().double_value()), Bits(want));
  }
}

/// One execution mode of the engine.
struct Mode {
  std::string name;
  bool batched;
  int batch_size;
  int threads;
};

const std::vector<Mode>& Modes() {
  static const std::vector<Mode> modes = {
      {"row", false, 1024, 0},          {"columnar/1", true, 1, 0},
      {"columnar/7", true, 7, 0},       {"columnar/1024", true, 1024, 0},
      {"parallel/4", true, 7, 4},
  };
  return modes;
}

/// Runs `sql` over a table t(g int64, x <x_type>) holding `rows` in order,
/// under every mode, and returns each mode's result rows.
std::vector<std::vector<Row>> RunAllModes(const std::vector<Row>& rows,
                                          DataType x_type,
                                          const std::string& sql) {
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "t", {{"g", DataType::kInt64, false}, {"x", x_type, true}});
  for (const Row& row : rows) EXPECT_TRUE(t->Append(row).ok());
  std::vector<std::vector<Row>> out;
  for (const Mode& mode : Modes()) {
    EngineOptions options = EngineOptions::Full();
    options.exec.batched = mode.batched;
    options.exec.batch_size = mode.batch_size;
    options.exec.num_threads = mode.threads;
    options.exec.morsel_rows = 5;
    QueryEngine engine(&catalog, options);
    Result<QueryResult> result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << mode.name << ": " << result.status().ToString();
    if (!result.ok()) return {};
    std::vector<Row> got = result->rows;
    std::sort(got.begin(), got.end(), [](const Row& a, const Row& b) {
      return a[0].TotalCompare(b[0]) < 0;
    });
    out.push_back(std::move(got));
  }
  return out;
}

std::vector<Row> Rows(const std::vector<double>& xs, int groups = 1) {
  std::vector<Row> rows;
  for (size_t i = 0; i < xs.size(); ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(i) % groups),
                    Value::Double(xs[i])});
  }
  return rows;
}

/// The grouped and the scalar SUM(x) of `xs`, in every mode and every
/// order of `xs`, all equal `want` to the bit.
void ExpectSqlSum(std::vector<double> xs, double want) {
  std::sort(xs.begin(), xs.end());
  do {
    for (const auto& mode_rows :
         RunAllModes(Rows(xs), DataType::kDouble,
                     "SELECT g, SUM(x) FROM t GROUP BY g")) {
      ASSERT_EQ(mode_rows.size(), 1u);
      EXPECT_EQ(Bits(mode_rows[0][1].double_value()), Bits(want));
    }
    for (const auto& mode_rows :
         RunAllModes(Rows(xs), DataType::kDouble, "SELECT 0, SUM(x) FROM t")) {
      ASSERT_EQ(mode_rows.size(), 1u);
      EXPECT_EQ(Bits(mode_rows[0][1].double_value()), Bits(want));
    }
  } while (std::next_permutation(xs.begin(), xs.end()));
}

TEST(SumContractTest, CancellationInEveryModeAndOrder) {
  ExpectSqlSum({1e16, 1.0, -1e16}, 1.0);
}

TEST(SumContractTest, OverflowRecoversInEveryModeAndOrder) {
  ExpectSqlSum({DBL_MAX, DBL_MAX, -DBL_MAX}, DBL_MAX);
}

TEST(SumContractTest, SpecialValuesInEveryMode) {
  ExpectSqlSum({kInf, 1.0}, kInf);
  ExpectSqlSum({-0.0, -0.0}, 0.0);
  for (const std::vector<double>& xs :
       {std::vector<double>{kInf, -kInf}, {std::nan(""), 1.0}}) {
    for (const auto& mode_rows :
         RunAllModes(Rows(xs), DataType::kDouble, "SELECT 0, SUM(x) FROM t")) {
      ASSERT_EQ(mode_rows.size(), 1u);
      EXPECT_TRUE(std::isnan(mode_rows[0][1].double_value()));
    }
  }
}

TEST(SumContractTest, PricesAreBitIdenticalAcrossOrdersAndModes) {
  // Decimal prices (two places, like TPC-H's) over five groups, in three
  // row orders: every order and every mode must agree to the bit.
  std::mt19937_64 rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) {
    xs.push_back(static_cast<double>(rng() % 10000000) / 100.0);
  }
  std::vector<Row> want;
  for (int order = 0; order < 3; ++order) {
    std::vector<Row> rows = Rows(xs, 5);
    std::shuffle(rows.begin(), rows.end(), rng);
    for (const auto& mode_rows :
         RunAllModes(rows, DataType::kDouble,
                     "SELECT g, SUM(x) FROM t GROUP BY g")) {
      ASSERT_EQ(mode_rows.size(), 5u);
      if (want.empty()) want = mode_rows;
      for (size_t g = 0; g < 5; ++g) {
        EXPECT_EQ(Bits(mode_rows[g][1].double_value()),
                  Bits(want[g][1].double_value()))
            << "group " << g << " order " << order;
      }
    }
  }
}

TEST(AggregateEmissionTest, DoubleColumnStaysTypedAfterNullFirstGroup) {
  // The first group's SUM is NULL; the emitted column must still be a
  // typed double column, not boxed values.
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "t", {{"g", DataType::kInt64, false}, {"x", DataType::kDouble, true}});
  ASSERT_TRUE(
      t->Append({Value::Int64(0), Value::Null(DataType::kDouble)}).ok());
  for (int i = 1; i < 6; ++i) {
    ASSERT_TRUE(t->Append({Value::Int64(i), Value::Double(i * 0.5)}).ok());
  }
  PhysicalOpPtr agg = MakeHashAggregateOp(
      MakeTableScan(t, {0, 1}, {1, 2}), {1},
      {AggItem{AggFunc::kSum, CRef(2, DataType::kDouble), 3, false},
       AggItem{AggFunc::kMin, CRef(2, DataType::kDouble), 4, false}},
      false);
  ExecContext ctx;
  ASSERT_TRUE(agg->Open(&ctx).ok());
  ColumnBatch batch(ctx.batch_size);
  ASSERT_TRUE(agg->NextColumns(&ctx, &batch).ok());
  ASSERT_EQ(batch.selected(), 6u);
  EXPECT_EQ(batch.col(0).rep(), ColumnRep::kInts);
  for (size_t c : {1, 2}) {
    ASSERT_EQ(batch.col(c).rep(), ColumnRep::kDoubles) << "column " << c;
    EXPECT_TRUE(batch.col(c).IsNull(0));
    EXPECT_EQ(batch.col(c).DoubleAt(3), 1.5);
  }
  agg->Close();
}

}  // namespace
}  // namespace orq
