// Column-batch protocol tests: the NextColumns contract at batch
// boundaries for every operator with a columnar path — batch sizes 1, 2,
// 1023 and 1025 over inputs longer than two batches, output that
// straddles the batch capacity and resumes on the next pull (join fan-out
// and left-outer padding crossing a batch edge, aggregate groups, morsels,
// segments), the empty-terminal contract, and re-open after Close — each
// checked against the row-mode (Next) reference of the same plan. Also
// typed NULL padding, and rows/stats agreement across the two protocols.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/ops.h"
#include "exec/parallel.h"
#include "exec/task_pool.h"
#include "obs/stats.h"
#include "tests/test_util.h"

namespace orq {
namespace {

/// Longer than two batches at every size under test, and an exact
/// multiple of 1025 (so one size ends on a batch edge, 1023 does not).
constexpr int kRows = 2050;
constexpr int kBoundarySizes[] = {1, 2, 1023, 1025};

ExecContext MakeContext(bool batched, int batch_size, TaskPool* pool) {
  ExecContext ctx;
  ctx.batched = batched;
  ctx.batch_size = batch_size;
  ctx.pool = pool;
  ctx.morsel_rows = 700;  // morsels end mid-batch at the larger sizes
  return ctx;
}

/// Drains the open `op` through NextColumns, checking the protocol on the
/// way: no batch carries more than batch_size physical rows, a batch with
/// no selected row appears only at end of stream, and a pull past the end
/// stays empty.
std::vector<Row> PullColumns(PhysicalOp* op, ExecContext* ctx) {
  std::vector<Row> rows;
  ColumnBatch batch(ctx->batch_size);
  while (true) {
    Status status = op->NextColumns(ctx, &batch);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok()) return rows;
    EXPECT_LE(batch.num_rows(), static_cast<uint32_t>(ctx->batch_size));
    if (batch.selected() == 0) break;
    for (uint32_t j = 0; j < batch.selected(); ++j) {
      rows.emplace_back();
      batch.DecodeRow(batch.RowAt(j), &rows.back());
    }
  }
  EXPECT_TRUE(op->NextColumns(ctx, &batch).ok());
  EXPECT_EQ(batch.selected(), 0u) << "pull past the end of stream";
  return rows;
}

/// Runs make()'s plan in row mode for the reference, then in columnar mode
/// at every boundary batch size, twice per plan instance (Open, drain,
/// Close, re-Open, drain, Close): the rows and the rows_produced work
/// metric must match the reference each time.
void ExpectColumnarMatchesRows(const std::function<PhysicalOpPtr()>& make,
                               const std::string& what,
                               TaskPool* pool = nullptr) {
  PhysicalOpPtr reference = make();
  ExecContext row_ctx = MakeContext(false, kDefaultBatchRows, pool);
  Result<std::vector<Row>> expected =
      ExecuteToVector(reference.get(), &row_ctx);
  ASSERT_TRUE(expected.ok()) << what << ": " << expected.status().ToString();
  const std::vector<std::string> want = CanonicalRows(*expected);
  for (int batch_size : kBoundarySizes) {
    PhysicalOpPtr plan = make();
    ExecContext ctx = MakeContext(true, batch_size, pool);
    for (int open = 0; open < 2; ++open) {
      ASSERT_TRUE(plan->Open(&ctx).ok()) << what;
      std::vector<Row> got = PullColumns(plan.get(), &ctx);
      plan->Close();
      EXPECT_EQ(CanonicalRows(got), want)
          << what << " batch_size=" << batch_size << " open=" << open;
    }
    EXPECT_EQ(ctx.rows_produced, 2 * row_ctx.rows_produced)
        << what << " batch_size=" << batch_size;
  }
}

class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // t: kRows rows keyed 0..kRows-1 with a 5-way grouping column.
    t_ = *catalog_.CreateTable("t", {{"k", DataType::kInt64, false},
                                     {"g", DataType::kInt64, false}});
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(t_->Append({Value::Int64(i), Value::Int64(i % 5)}).ok());
    }
    // s: three rows per even key < 8, so one probe row's matches alone
    // overflow a batch of 1 or 2.
    s_ = *catalog_.CreateTable("s", {{"fk", DataType::kInt64, false},
                                     {"w", DataType::kInt64, false}});
    for (int i = 0; i < 8; i += 2) {
      for (int j = 0; j < 3; ++j) {
        ASSERT_TRUE(
            s_->Append({Value::Int64(i), Value::Int64(i * 10 + j)}).ok());
      }
    }
    // u: every third key of t, and key 0 twice (bag semantics).
    u_ = *catalog_.CreateTable("u", {{"k", DataType::kInt64, false}});
    ASSERT_TRUE(u_->Append({Value::Int64(0)}).ok());
    for (int i = 0; i < kRows; i += 3) {
      ASSERT_TRUE(u_->Append({Value::Int64(i)}).ok());
    }
  }

  PhysicalOpPtr ScanT() { return MakeTableScan(t_, {0, 1}, {1, 2}); }
  PhysicalOpPtr ScanS() { return MakeTableScan(s_, {0, 1}, {3, 4}); }

  PhysicalOpPtr MakeJoin(PhysJoinKind kind, bool hash) {
    if (hash) {
      return MakeHashJoinOp(
          kind, ScanT(), ScanS(),
          {{CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}}, nullptr,
          {DataType::kInt64, DataType::kInt64});
    }
    return MakeNLJoinOp(kind, ScanT(), ScanS(),
                        Eq(CRef(1, DataType::kInt64),
                           CRef(3, DataType::kInt64)),
                        false, {DataType::kInt64, DataType::kInt64});
  }

  Catalog catalog_;
  Table* t_ = nullptr;
  Table* s_ = nullptr;
  Table* u_ = nullptr;
};

TEST_F(BatchExecTest, ScanAndSortBoundaries) {
  ExpectColumnarMatchesRows([&] { return ScanT(); }, "TableScan");
  ExpectColumnarMatchesRows(
      [&] {
        return MakeSortOp(ScanT(), {SortKey{CRef(1, DataType::kInt64), false}},
                          -1);
      },
      "Sort");
}

TEST_F(BatchExecTest, HashAggregateEmissionBoundaries) {
  // kRows groups: the emission window straddles every batch size.
  ExpectColumnarMatchesRows(
      [&] {
        return MakeHashAggregateOp(
            ScanT(), {1},
            {AggItem{AggFunc::kCountStar, nullptr, 5, false},
             AggItem{AggFunc::kSum, CRef(2, DataType::kInt64), 6, false}},
            false);
      },
      "HashAggregate");
  // A scalar aggregate over empty input emits its one row.
  ExpectColumnarMatchesRows(
      [&] {
        return MakeHashAggregateOp(
            MakeFilterOp(ScanT(), LitBool(false)), {},
            {AggItem{AggFunc::kCountStar, nullptr, 5, false},
             AggItem{AggFunc::kSum, CRef(2, DataType::kInt64), 6, false}},
            true);
      },
      "ScalarAggregate");
}

TEST_F(BatchExecTest, JoinBoundariesEveryKind) {
  // Fan-out of three per matched key and kRows - 4 unmatched left rows:
  // matches and NULL-padded rows cross batch edges at every size.
  for (PhysJoinKind kind :
       {PhysJoinKind::kInner, PhysJoinKind::kLeftOuter,
        PhysJoinKind::kLeftSemi, PhysJoinKind::kLeftAnti}) {
    for (bool hash : {false, true}) {
      ExpectColumnarMatchesRows(
          [&] { return MakeJoin(kind, hash); },
          std::string(hash ? "HashJoin" : "NLJoin") +
              " kind=" + std::to_string(static_cast<int>(kind)));
    }
  }
}

TEST_F(BatchExecTest, HashJoinComputedProbeKeys) {
  // A vectorizable key expression and a non-vectorizable one (division,
  // the row evaluator's error site) both probe columnar.
  for (ArithOp op : {ArithOp::kAdd, ArithOp::kDiv}) {
    ExpectColumnarMatchesRows(
        [&] {
          ScalarExprPtr key = MakeArith(op, CRef(1, DataType::kInt64),
                                        LitInt(op == ArithOp::kAdd ? 0 : 1));
          return MakeHashJoinOp(PhysJoinKind::kLeftOuter, ScanT(), ScanS(),
                                {{key, CRef(3, DataType::kInt64)}}, nullptr,
                                {DataType::kInt64, DataType::kInt64});
        },
        op == ArithOp::kAdd ? "HashJoin(k + 0)" : "HashJoin(k / 1)");
  }
}

TEST_F(BatchExecTest, HashJoinResidualEveryKind) {
  // A residual over one probe-side and one build-side column (w > k
  // rejects the first match of key 0 only); the columnar probe fills just
  // those two slots of its combined row.
  for (PhysJoinKind kind :
       {PhysJoinKind::kInner, PhysJoinKind::kLeftOuter,
        PhysJoinKind::kLeftSemi, PhysJoinKind::kLeftAnti}) {
    ExpectColumnarMatchesRows(
        [&] {
          return MakeHashJoinOp(
              kind, ScanT(), ScanS(),
              {{CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}},
              MakeCompare(CompareOp::kGt, CRef(4, DataType::kInt64),
                          CRef(1, DataType::kInt64)),
              {DataType::kInt64, DataType::kInt64});
        },
        "HashJoin residual kind=" + std::to_string(static_cast<int>(kind)));
  }
}

TEST_F(BatchExecTest, ExceptAllBoundaries) {
  ExpectColumnarMatchesRows(
      [&] {
        return MakeExceptAllOp(MakeTableScan(t_, {0}, {1}),
                               MakeTableScan(u_, {0}, {7}), {1});
      },
      "ExceptAll");
}

TEST_F(BatchExecTest, SegmentApplyAndSegmentScanBoundaries) {
  // Five segments of kRows / 5 rows, each re-read by a SegmentScan inner.
  ExpectColumnarMatchesRows(
      [&] {
        return MakeSegmentApplyOp(ScanT(), MakeSegmentScanOp({10, 11}), {1},
                                  {2, 10, 11});
      },
      "SegmentApply(SegmentScan)");
}

TEST_F(BatchExecTest, ExchangeOverMorselScansBoundaries) {
  // Two workers claim 700-row morsels; the exchange moves owned column
  // batches (row batches transposed on the row path). Each instance
  // filters (a selection vector to compact) and computes a column (a view
  // into evaluator scratch its next pull overwrites).
  TaskPool pool(2);
  ExpectColumnarMatchesRows(
      [&] {
        SharedRegionStatePtr source = MakeMorselSource();
        std::vector<PhysicalOpPtr> instances;
        for (int w = 0; w < 2; ++w) {
          PhysicalOpPtr filtered = MakeFilterOp(
              MakeMorselScan(t_, {0, 1}, {1, 2}, source),
              MakeCompare(CompareOp::kGt, CRef(2, DataType::kInt64),
                          LitInt(0)));
          instances.push_back(MakeComputeOp(
              std::move(filtered),
              {ProjectItem{20, MakeArith(ArithOp::kAdd,
                                         CRef(1, DataType::kInt64),
                                         LitInt(1))}},
              {1, 2}));
        }
        return MakeExchangeOp(std::move(instances), {source}, {1, 2, 20});
      },
      "Exchange(Compute(Filter(MorselScan)))", &pool);
}

// Unmatched LOJ padding must carry the right layout's declared types, not
// default int64 (a Compute above the join dispatches on them).
TEST_F(BatchExecTest, LeftOuterPadsDeclaredTypes) {
  Table* v = *catalog_.CreateTable("v", {{"fk", DataType::kInt64, false},
                                         {"name", DataType::kString, false},
                                         {"score", DataType::kDouble, false}});
  ASSERT_TRUE(v->Append({Value::Int64(0), Value::String("zero"),
                         Value::Double(0.5)})
                  .ok());
  const std::vector<DataType> right_types = {
      DataType::kInt64, DataType::kString, DataType::kDouble};
  auto scan_v = [&]() { return MakeTableScan(v, {0, 1, 2}, {3, 4, 5}); };
  auto scan_t = [&]() { return MakeTableScan(t_, {0}, {1}); };
  PhysicalOpPtr nl = MakeNLJoinOp(
      PhysJoinKind::kLeftOuter, scan_t(), scan_v(),
      Eq(CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)), false,
      right_types);
  PhysicalOpPtr hash = MakeHashJoinOp(
      PhysJoinKind::kLeftOuter, scan_t(), scan_v(),
      {{CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}}, nullptr,
      right_types);
  for (PhysicalOp* plan : {nl.get(), hash.get()}) {
    ExecContext ctx = MakeContext(true, 4, nullptr);
    Result<std::vector<Row>> rows = ExecuteToVector(plan, &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
    int padded = 0;
    for (const Row& row : *rows) {
      if (!row[1].is_null()) continue;  // matched k=0
      ++padded;
      EXPECT_EQ(row[1].type(), DataType::kInt64);
      EXPECT_EQ(row[2].type(), DataType::kString);
      EXPECT_EQ(row[3].type(), DataType::kDouble);
    }
    EXPECT_EQ(padded, kRows - 1);
  }
}

// The two pull protocols are one engine: identical rows, identical
// rows_produced, and per-operator stats that account for every row.
TEST_F(BatchExecTest, StatsConsistentAcrossModes) {
  auto run = [&](bool batched, StatsCollector* stats, int64_t* produced) {
    PhysicalOpPtr plan = MakeHashAggregateOp(
        MakeJoin(PhysJoinKind::kLeftOuter, /*hash=*/true), {1},
        {AggItem{AggFunc::kCountStar, nullptr, 5, false}}, false);
    ExecContext ctx = MakeContext(batched, 4, nullptr);
    ExecInstruments instruments;
    instruments.stats = stats;
    ctx.instruments = &instruments;
    Result<std::vector<Row>> rows = ExecuteToVector(plan.get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    *produced = ctx.rows_produced;
    return CanonicalRows(*rows);
  };
  StatsCollector columnar_stats;
  StatsCollector row_stats;
  int64_t columnar_produced = 0;
  int64_t row_produced = 0;
  auto columnar_rows = run(true, &columnar_stats, &columnar_produced);
  auto row_rows = run(false, &row_stats, &row_produced);

  EXPECT_EQ(columnar_rows, row_rows);
  EXPECT_EQ(columnar_produced, row_produced);
  EXPECT_EQ(columnar_stats.TotalRowsOut(), row_stats.TotalRowsOut());
  EXPECT_EQ(columnar_stats.TotalRowsOut(), columnar_produced);
}

// A correlated Apply pulls its outer input in column batches but re-opens
// and pulls its inner row by row; both protocols must agree.
TEST_F(BatchExecTest, CorrelatedApplyUnderColumnarDrain) {
  ExpectColumnarMatchesRows(
      [&] {
        PhysicalOpPtr inner = MakeFilterOp(
            ScanS(), Eq(CRef(3, DataType::kInt64), CRef(1, DataType::kInt64)));
        return MakeNLJoinOp(PhysJoinKind::kInner, ScanT(), std::move(inner),
                            TrueLiteral(), true);
      },
      "Apply");
}

}  // namespace
}  // namespace orq
