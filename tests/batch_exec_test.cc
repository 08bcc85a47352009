// Column-batch protocol tests: the NextColumns contract at batch
// boundaries for every operator with a columnar path — batch sizes 1, 2,
// 1023 and 1025 over inputs longer than two batches, output that
// straddles the batch capacity and resumes on the next pull (join fan-out
// and left-outer padding crossing a batch edge, aggregate groups, morsels,
// segments), the empty-terminal contract, and re-open after Close — each
// checked against the row-mode (Next) reference of the same plan. Also
// typed NULL padding, and rows/stats agreement across the two protocols.
// Index joins are further checked against the Apply-over-IndexSeek plan
// they replace: same rows, and errors on the same candidates.
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
    s_->BuildIndex({0});
    // w: one 2100-row bucket (key 0), so a single probe row's matches
    // straddle windows and output batches at every size; a one-row bucket
    // (key 2); and NULL keys, which the index leaves out.
    w_ = *catalog_.CreateTable("w", {{"fk", DataType::kInt64, true},
                                     {"v", DataType::kInt64, false}});
    for (int i = 0; i < 2100; ++i) {
      ASSERT_TRUE(w_->Append({Value::Int64(0), Value::Int64(i)}).ok());
    }
    ASSERT_TRUE(w_->Append({Value::Int64(2), Value::Int64(7)}).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          w_->Append({Value::Null(DataType::kInt64), Value::Int64(i)}).ok());
    }
    w_->BuildIndex({0});
    // p: probe keys with NULLs (every 7th row) and the same keys as
    // doubles.
    p_ = *catalog_.CreateTable("p", {{"k", DataType::kInt64, true},
                                     {"d", DataType::kDouble, true}});
    for (int i = 0; i < 40; ++i) {
      const bool null = i % 7 == 3;
      ASSERT_TRUE(p_->Append({null ? Value::Null(DataType::kInt64)
                                   : Value::Int64(i % 10),
                              null ? Value::Null(DataType::kDouble)
                                   : Value::Double(i % 10)})
                      .ok());
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

  /// IndexJoin(kind) of `left` with `table` through its index on column
  /// 0, probing with `key`; right columns {30, 31} as int64.
  PhysicalOpPtr MakeIndexJoin(PhysJoinKind kind, PhysicalOpPtr left,
                              Table* table, ScalarExprPtr key,
                              ScalarExprPtr residual) {
    return MakeIndexJoinOp(kind, std::move(left), table,
                           table->FindIndex({0}), {std::move(key)}, {0, 1},
                           {30, 31}, std::move(residual),
                           {DataType::kInt64, DataType::kInt64});
  }

  /// The plan an index join replaces: Apply(kind) re-opening an IndexSeek
  /// whose key and residual read the outer row through parameters.
  PhysicalOpPtr MakeApplyIndexSeek(PhysJoinKind kind, PhysicalOpPtr left,
                                   Table* table, ScalarExprPtr key,
                                   ScalarExprPtr residual) {
    PhysicalOpPtr seek =
        MakeIndexSeek(table, table->FindIndex({0}), {std::move(key)}, {0, 1},
                      {30, 31}, std::move(residual));
    return MakeNLJoinOp(kind, std::move(left), std::move(seek), TrueLiteral(),
                        /*rebind_inner=*/true,
                        {DataType::kInt64, DataType::kInt64});
  }

  /// Checks make_join(kind) on every batch-size boundary and re-open
  /// (ExpectColumnarMatchesRows), and against the Apply-over-IndexSeek
  /// reference built by make_apply(kind), for all four kinds: the same
  /// rows, or an error in all three executions.
  void ExpectIndexJoinMatchesApply(
      const std::function<PhysicalOpPtr(PhysJoinKind)>& make_join,
      const std::function<PhysicalOpPtr(PhysJoinKind)>& make_apply,
      const std::string& what) {
    for (PhysJoinKind kind :
         {PhysJoinKind::kInner, PhysJoinKind::kLeftOuter,
          PhysJoinKind::kLeftSemi, PhysJoinKind::kLeftAnti}) {
      const std::string label =
          what + " kind=" + std::to_string(static_cast<int>(kind));
      PhysicalOpPtr apply = make_apply(kind);
      ExecContext apply_ctx = MakeContext(false, kDefaultBatchRows, nullptr);
      Result<std::vector<Row>> expected =
          ExecuteToVector(apply.get(), &apply_ctx);
      if (!expected.ok()) {
        for (bool batched : {false, true}) {
          PhysicalOpPtr join = make_join(kind);
          ExecContext ctx = MakeContext(batched, 4, nullptr);
          Result<std::vector<Row>> got = ExecuteToVector(join.get(), &ctx);
          ASSERT_FALSE(got.ok()) << label << " batched=" << batched;
          EXPECT_EQ(got.status().code(), expected.status().code()) << label;
        }
        continue;
      }
      PhysicalOpPtr join = make_join(kind);
      ExecContext ctx = MakeContext(false, kDefaultBatchRows, nullptr);
      Result<std::vector<Row>> got = ExecuteToVector(join.get(), &ctx);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      EXPECT_EQ(CanonicalRows(*got), CanonicalRows(*expected)) << label;
      ExpectColumnarMatchesRows([&] { return make_join(kind); }, label);
    }
  }

  Catalog catalog_;
  Table* t_ = nullptr;
  Table* s_ = nullptr;
  Table* u_ = nullptr;
  Table* w_ = nullptr;
  Table* p_ = nullptr;
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

// A residual the row engine cannot vectorize (division) keeps the
// per-candidate row Evaluator; the probe must agree with the vectorized
// one above.
TEST_F(BatchExecTest, HashJoinPerRowResidualEveryKind) {
  for (PhysJoinKind kind :
       {PhysJoinKind::kInner, PhysJoinKind::kLeftOuter,
        PhysJoinKind::kLeftSemi, PhysJoinKind::kLeftAnti}) {
    ExpectColumnarMatchesRows(
        [&] {
          return MakeHashJoinOp(
              kind, ScanT(), ScanS(),
              {{CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}},
              MakeCompare(CompareOp::kGt,
                          MakeArith(ArithOp::kDiv, CRef(4, DataType::kInt64),
                                    LitInt(1)),
                          CRef(1, DataType::kInt64)),
              {DataType::kInt64, DataType::kInt64});
        },
        "HashJoin per-row residual kind=" +
            std::to_string(static_cast<int>(kind)));
  }
}

// ---- Probe boundaries: every hash-join probe loop against the
// NestedLoopsJoin plan of the same join, as a serial build, a cached build
// (re-opened, so its second Open probes the retained table) and a 4-worker
// parallel build merged at the barrier.

/// How a hash-join plan gets its build side.
enum class BuildMode { kSerial, kCached, kParallel };

/// The rows `plan` produces from a fresh context; an error fails the test.
std::vector<std::string> RunRows(PhysicalOp* plan, bool batched,
                                 int batch_size, TaskPool* pool,
                                 const std::string& what) {
  ExecContext ctx = MakeContext(batched, batch_size, pool);
  Result<std::vector<Row>> rows = ExecuteToVector(plan, &ctx);
  EXPECT_TRUE(rows.ok()) << what << ": " << rows.status().ToString();
  return rows.ok() ? CanonicalRows(*rows) : std::vector<std::string>{};
}

/// make_hash(mode) builds the hash join under test, its probe and build
/// inputs scanned serially (kSerial, kCached) or as one worker's morsel
/// share (kParallel, wrapped in an Exchange here); make_nl() the
/// NestedLoopsJoin reference. Every build mode must produce the
/// reference's rows in row and in columnar mode at every boundary batch
/// size, across a re-open.
void ExpectHashJoinMatchesNL(
    const std::function<PhysicalOpPtr(BuildMode, int, SharedRegionStatePtr,
                                      SharedRegionStatePtr,
                                      SharedRegionStatePtr)>& make_hash,
    const std::function<PhysicalOpPtr()>& make_nl, const std::string& what) {
  PhysicalOpPtr nl = make_nl();
  const std::vector<std::string> want =
      RunRows(nl.get(), false, kDefaultBatchRows, nullptr, what + " NL");
  constexpr int kWorkers = 4;
  TaskPool pool(kWorkers);
  for (BuildMode mode :
       {BuildMode::kSerial, BuildMode::kCached, BuildMode::kParallel}) {
    const std::string label =
        what + " build=" + std::to_string(static_cast<int>(mode));
    auto make = [&]() -> PhysicalOpPtr {
      if (mode != BuildMode::kParallel) {
        return make_hash(mode, 0, nullptr, nullptr, nullptr);
      }
      SharedRegionStatePtr probe = MakeMorselSource();
      SharedRegionStatePtr build = MakeMorselSource();
      SharedRegionStatePtr join = MakeSharedJoinState(kWorkers);
      std::vector<PhysicalOpPtr> instances;
      for (int w = 0; w < kWorkers; ++w) {
        instances.push_back(make_hash(mode, w, probe, build, join));
      }
      std::vector<ColumnId> layout = instances[0]->layout();
      return MakeExchangeOp(std::move(instances), {probe, build, join},
                            std::move(layout));
    };
    PhysicalOpPtr plan = make();
    EXPECT_EQ(RunRows(plan.get(), false, kDefaultBatchRows, &pool, label),
              want)
        << label << " (row mode)";
    if (mode != BuildMode::kCached) {
      ExpectColumnarMatchesRows(make, label, &pool);
      continue;
    }
    // A cached build's re-open replays the table without re-running the
    // build input, so only the rows (not rows_produced) repeat.
    for (bool batched : {false, true}) {
      for (int batch_size : kBoundarySizes) {
        PhysicalOpPtr cached = make();
        for (int open = 0; open < 2; ++open) {
          EXPECT_EQ(RunRows(cached.get(), batched, batch_size, &pool, label),
                    want)
              << label << " batched=" << batched
              << " batch_size=" << batch_size << " open=" << open;
        }
      }
    }
  }
}

class ProbeBoundaryTest : public BatchExecTest {
 protected:
  void SetUp() override {
    BatchExecTest::SetUp();
    // q: kRows probe rows, keys 0..12 with a NULL every 11th row.
    q_ = *catalog_.CreateTable("q", {{"k", DataType::kInt64, true},
                                     {"v", DataType::kInt64, false}});
    for (int i = 0; i < kRows; ++i) {
      ASSERT_TRUE(q_->Append({i % 11 == 5 ? Value::Null(DataType::kInt64)
                                          : Value::Int64(i % 13),
                              Value::Int64(i)})
                      .ok());
    }
    // r: the build side every test filters: x, a string and a double,
    // with duplicate keys 2 and 4 and one NULL key.
    r_ = *catalog_.CreateTable("r", {{"x", DataType::kInt64, true},
                                     {"name", DataType::kString, false},
                                     {"score", DataType::kDouble, false}});
    const std::vector<Value> xs = {Value::Int64(2), Value::Int64(2),
                                   Value::Int64(4), Value::Int64(4),
                                   Value::Int64(4), Value::Int64(7),
                                   Value::Null(DataType::kInt64)};
    for (size_t i = 0; i < xs.size(); ++i) {
      ASSERT_TRUE(r_->Append({xs[i], Value::String("r" + std::to_string(i)),
                              Value::Double(0.5 * static_cast<double>(i))})
                      .ok());
    }
    // a: the anti-residual build, (x, y) with both nullable. Against q.v
    // (0..kRows-1), `q.v < y` is TRUE, FALSE or UNKNOWN per candidate, and
    // a probe row's bucket mixes the three: key 2 holds y = 500, 1500 and
    // NULL, key 4 only NULLs, key 3 a duplicate, key 9 a y no v is under,
    // and two NULL keys.
    a_ = *catalog_.CreateTable("a", {{"x", DataType::kInt64, true},
                                     {"y", DataType::kInt64, true}});
    const Value null = Value::Null(DataType::kInt64);
    const std::vector<std::pair<Value, Value>> pairs = {
        {Value::Int64(2), Value::Int64(500)},
        {Value::Int64(2), Value::Int64(1500)},
        {Value::Int64(2), null},
        {Value::Int64(4), null},
        {Value::Int64(4), null},
        {Value::Int64(3), Value::Int64(2000)},
        {Value::Int64(3), Value::Int64(2000)},
        {Value::Int64(7), Value::Int64(1000)},
        {Value::Int64(9), Value::Int64(0)},
        {null, Value::Int64(500)},
        {null, null}};
    for (const auto& [x, y] : pairs) {
      ASSERT_TRUE(a_->Append({x, y}).ok());
    }
  }

  static std::vector<DataType> RTypes() {
    return {DataType::kInt64, DataType::kString, DataType::kDouble};
  }

  /// Scan of `table` with columns {first, first + 1, ...}: serial, or one
  /// worker's morsels of `source`.
  static PhysicalOpPtr Scan(Table* table, std::vector<int> ordinals,
                            ColumnId first, SharedRegionStatePtr source) {
    std::vector<ColumnId> layout;
    for (size_t i = 0; i < ordinals.size(); ++i) {
      layout.push_back(first + static_cast<ColumnId>(i));
    }
    if (source != nullptr) {
      return MakeMorselScan(table, std::move(ordinals), std::move(layout),
                            std::move(source));
    }
    return MakeTableScan(table, std::move(ordinals), std::move(layout));
  }

  /// q's rows (columns 1, 2), optionally filtered by `probe_filter`.
  PhysicalOpPtr Probe(const ScalarExprPtr& probe_filter,
                      SharedRegionStatePtr source) {
    PhysicalOpPtr scan = Scan(q_, {0, 1}, 1, std::move(source));
    if (probe_filter == nullptr) return scan;
    return MakeFilterOp(std::move(scan), probe_filter);
  }

  /// r's rows (columns 3, 4, 5) that pass `build_filter`.
  PhysicalOpPtr Build(const ScalarExprPtr& build_filter,
                      SharedRegionStatePtr source) {
    return MakeFilterOp(Scan(r_, {0, 1, 2}, 3, std::move(source)),
                        build_filter);
  }

  /// HashJoin(kind) on q.k = r.x vs NestedLoopsJoin(kind) on the same
  /// equality, probe and build filtered as given.
  void ExpectEquiJoin(PhysJoinKind kind, const ScalarExprPtr& probe_filter,
                      const ScalarExprPtr& build_filter,
                      const std::string& what) {
    ExpectHashJoinMatchesNL(
        [&](BuildMode mode, int worker, SharedRegionStatePtr probe,
            SharedRegionStatePtr build, SharedRegionStatePtr join) {
          return MakeHashJoinOp(
              kind, Probe(probe_filter, std::move(probe)),
              Build(build_filter, std::move(build)),
              {{CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}},
              nullptr, RTypes(), mode == BuildMode::kCached, std::move(join),
              worker);
        },
        [&] {
          return MakeNLJoinOp(kind, Probe(probe_filter, nullptr),
                              Build(build_filter, nullptr),
                              Eq(CRef(1, DataType::kInt64),
                                 CRef(3, DataType::kInt64)),
                              false, RTypes());
        },
        what + " kind=" + std::to_string(static_cast<int>(kind)));
  }

  /// NOT IN: the null-aware HashJoin(anti) vs NestedLoopsJoin(anti) on
  /// `q.k = r.x OR (q.k = r.x) IS NULL`, and on the older `<> ALL`
  /// spelling `q.k = r.x OR (q.k <> r.x) IS NULL`, the build filtered as
  /// given.
  void ExpectNotIn(const ScalarExprPtr& build_filter,
                   const std::string& what) {
    ScalarExprPtr k = CRef(1, DataType::kInt64);
    ScalarExprPtr x = CRef(3, DataType::kInt64);
    for (const ScalarExprPtr& tested :
         {Eq(k, x), MakeCompare(CompareOp::kNe, k, x)}) {
      ExpectHashJoinMatchesNL(
          [&](BuildMode mode, int worker, SharedRegionStatePtr probe,
              SharedRegionStatePtr build, SharedRegionStatePtr join) {
            return MakeNullAwareAntiJoinOp(
                Probe(nullptr, std::move(probe)),
                Build(build_filter, std::move(build)), {k, x}, RTypes(),
                mode == BuildMode::kCached, std::move(join), worker);
          },
          [&] {
            return MakeNLJoinOp(
                PhysJoinKind::kLeftAnti, Probe(nullptr, nullptr),
                Build(build_filter, nullptr),
                MakeOr({Eq(k, x), MakeIsNull(tested)}), false, RTypes());
          },
          (tested->cmp == CompareOp::kEq ? "NOT IN " : "<> ALL ") + what);
    }
  }

  /// a's rows (columns 3, 4) that pass `build_filter`.
  PhysicalOpPtr BuildA(const ScalarExprPtr& build_filter,
                       SharedRegionStatePtr source) {
    return MakeFilterOp(Scan(a_, {0, 1}, 3, std::move(source)),
                        build_filter);
  }

  /// HashJoin(anti) on q.k = a.x with `residual` vs NestedLoopsJoin(anti)
  /// on the key AND the residual, the build filtered as given.
  void ExpectAntiResidual(const ScalarExprPtr& build_filter,
                          const ScalarExprPtr& residual,
                          const std::string& what) {
    const std::vector<DataType> types = {DataType::kInt64, DataType::kInt64};
    ScalarExprPtr k = CRef(1, DataType::kInt64);
    ScalarExprPtr x = CRef(3, DataType::kInt64);
    ExpectHashJoinMatchesNL(
        [&](BuildMode mode, int worker, SharedRegionStatePtr probe,
            SharedRegionStatePtr build, SharedRegionStatePtr join) {
          return MakeHashJoinOp(
              PhysJoinKind::kLeftAnti, Probe(nullptr, std::move(probe)),
              BuildA(build_filter, std::move(build)), {{k, x}}, residual,
              types, mode == BuildMode::kCached, std::move(join), worker);
        },
        [&] {
          return MakeNLJoinOp(PhysJoinKind::kLeftAnti,
                              Probe(nullptr, nullptr),
                              BuildA(build_filter, nullptr),
                              MakeAnd2(Eq(k, x), residual), false, types);
        },
        "anti residual " + what);
  }

  static constexpr PhysJoinKind kKinds[] = {
      PhysJoinKind::kInner, PhysJoinKind::kLeftOuter, PhysJoinKind::kLeftSemi,
      PhysJoinKind::kLeftAnti};

  Table* q_ = nullptr;
  Table* r_ = nullptr;
  Table* a_ = nullptr;
};

// An empty build: inner and semi emit nothing, anti passes every probe
// row, outer pads every probe row with NULLs of the declared right types.
TEST_F(ProbeBoundaryTest, EmptyBuildEveryKind) {
  for (PhysJoinKind kind : kKinds) {
    ExpectEquiJoin(kind, nullptr, LitBool(false), "empty build");
  }
  PhysicalOpPtr outer = MakeHashJoinOp(
      PhysJoinKind::kLeftOuter, Probe(nullptr, nullptr),
      Build(LitBool(false), nullptr),
      {{CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}}, nullptr,
      RTypes());
  for (bool batched : {false, true}) {
    ExecContext ctx = MakeContext(batched, 4, nullptr);
    Result<std::vector<Row>> rows = ExecuteToVector(outer.get(), &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), static_cast<size_t>(kRows));
    for (const Row& row : *rows) {
      ASSERT_TRUE(row[2].is_null() && row[3].is_null() && row[4].is_null());
      EXPECT_EQ(row[2].type(), DataType::kInt64);
      EXPECT_EQ(row[3].type(), DataType::kString);
      EXPECT_EQ(row[4].type(), DataType::kDouble);
    }
  }
}

// An empty build still evaluates every probe row's key: a key that
// divides by zero errors in both modes, whatever the kind.
TEST_F(ProbeBoundaryTest, EmptyBuildStillEvaluatesProbeKeys) {
  for (PhysJoinKind kind : kKinds) {
    for (bool batched : {false, true}) {
      PhysicalOpPtr join = MakeHashJoinOp(
          kind, Probe(nullptr, nullptr), Build(LitBool(false), nullptr),
          {{MakeArith(ArithOp::kDiv, CRef(2, DataType::kInt64), LitInt(0)),
            CRef(3, DataType::kInt64)}},
          nullptr, RTypes());
      ExecContext ctx = MakeContext(batched, 16, nullptr);
      EXPECT_FALSE(ExecuteToVector(join.get(), &ctx).ok())
          << "kind=" << static_cast<int>(kind) << " batched=" << batched;
    }
  }
}

// Duplicate and NULL build keys, NULL probe keys, every kind.
TEST_F(ProbeBoundaryTest, DuplicateAndNullKeysEveryKind) {
  for (PhysJoinKind kind : kKinds) {
    ExpectEquiJoin(kind, nullptr, LitBool(true), "duplicates");
  }
}

// Every kind over a probe batch that already carries a selection
// (Filter's), and a dense one: semi and anti joins narrow it in place,
// inner and outer joins gather from its selected rows. The second build
// has unique keys (7, and a NULL key it leaves out).
TEST_F(ProbeBoundaryTest, SelectionNarrowingOnSelectedProbe) {
  ScalarExprPtr odd_v = MakeCompare(
      CompareOp::kEq,
      MakeArith(ArithOp::kSub, CRef(2, DataType::kInt64),
                MakeArith(ArithOp::kMul,
                          MakeArith(ArithOp::kDiv, CRef(2, DataType::kInt64),
                                    LitInt(2)),
                          LitInt(2))),
      LitInt(1));
  ScalarExprPtr x = CRef(3, DataType::kInt64);
  ScalarExprPtr unique =
      MakeOr({MakeCompare(CompareOp::kGt, x, LitInt(4)), MakeIsNull(x)});
  for (PhysJoinKind kind : kKinds) {
    for (const ScalarExprPtr& build : {LitBool(true), unique}) {
      ExpectEquiJoin(kind, odd_v, build, "selected probe");
      ExpectEquiJoin(kind,
                     MakeCompare(CompareOp::kGt, CRef(2, DataType::kInt64),
                                 LitInt(-1)),
                     build, "dense probe");
    }
  }
}

// The NOT IN matrix. q's probe keys include NULLs throughout, so each
// build case also covers a NULL probe key against it.
TEST_F(ProbeBoundaryTest, NotInMatrix) {
  ScalarExprPtr x = CRef(3, DataType::kInt64);
  // Empty inner: every row passes, NULL probe keys included.
  ExpectNotIn(LitBool(false), "empty inner");
  // An inner holding a NULL: no row passes.
  ExpectNotIn(LitBool(true), "inner with NULL");
  ExpectNotIn(MakeIsNull(x), "inner of only NULL");
  // A non-empty inner without NULLs: NULL probe keys are rejected, the
  // other keys pass unless found.
  ExpectNotIn(MakeCompare(CompareOp::kEq, x, LitInt(7)), "inner {7}");
  // Duplicate inner keys.
  ExpectNotIn(MakeCompare(CompareOp::kLt, x, LitInt(5)), "inner {2,2,4,4,4}");
  // A NULL probe key against an empty inner passes.
  PhysicalOpPtr join = MakeNullAwareAntiJoinOp(
      Probe(MakeIsNull(CRef(1, DataType::kInt64)), nullptr),
      Build(LitBool(false), nullptr),
      {CRef(1, DataType::kInt64), CRef(3, DataType::kInt64)}, RTypes());
  for (bool batched : {false, true}) {
    ExecContext ctx = MakeContext(batched, 16, nullptr);
    Result<std::vector<Row>> rows = ExecuteToVector(join.get(), &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), static_cast<size_t>((kRows + 5) / 11));
  }
}

// An anti join with a residual, the shape a correlated NOT IN or ALL
// decorrelates to: the correlation is the key and the residual decides
// each candidate. A probe row is rejected only by a candidate whose
// residual is TRUE; FALSE and UNKNOWN candidates leave it in. q's NULL
// keys and a's NULL keys match nothing. Checked for a vectorized
// residual, its `(v < y) IS NULL` disjunction (>= ALL's form), and a
// per-candidate row-evaluated one (division), over every build: all of a,
// its non-NULL keys, and none.
TEST_F(ProbeBoundaryTest, AntiJoinWithResidual) {
  ScalarExprPtr v = CRef(2, DataType::kInt64);
  ScalarExprPtr y = CRef(4, DataType::kInt64);
  ScalarExprPtr less = MakeCompare(CompareOp::kLt, v, y);
  const std::vector<std::pair<std::string, ScalarExprPtr>> residuals = {
      {"v < y", less},
      {"v < y OR (v < y) IS NULL", MakeOr({less, MakeIsNull(less)})},
      {"v / 1 < y",
       MakeCompare(CompareOp::kLt, MakeArith(ArithOp::kDiv, v, LitInt(1)),
                   y)}};
  const std::vector<std::pair<std::string, ScalarExprPtr>> builds = {
      {"all", LitBool(true)},
      {"non-NULL keys", MakeIsNotNull(CRef(3, DataType::kInt64))},
      {"empty", LitBool(false)}};
  for (const auto& [residual_name, residual] : residuals) {
    for (const auto& [build_name, build] : builds) {
      ExpectAntiResidual(build, residual,
                         residual_name + ", build " + build_name);
    }
  }
}

// Every kind over t (kRows probe rows, fan-out three for four keys): the
// index join equals the Apply-over-IndexSeek plan it replaces and holds
// the batch protocol at every boundary.
TEST_F(BatchExecTest, IndexJoinBoundariesEveryKind) {
  ExpectIndexJoinMatchesApply(
      [&](PhysJoinKind kind) {
        return MakeIndexJoin(kind, ScanT(), s_, CRef(1, DataType::kInt64),
                             nullptr);
      },
      [&](PhysJoinKind kind) {
        return MakeApplyIndexSeek(kind, ScanT(), s_,
                                  CRef(1, DataType::kInt64), nullptr);
      },
      "IndexJoin(s)");
}

// Each key-0 probe row's 2100 matches straddle candidate windows and
// output batches at every batch size, with and without a residual.
TEST_F(BatchExecTest, IndexJoinBucketStraddlesBatches) {
  for (bool residual : {false, true}) {
    auto res = [&]() -> ScalarExprPtr {
      if (!residual) return nullptr;
      // Keeps v > 1500 of key 0's bucket: its first match sits past the
      // first candidate window at every batch size.
      return MakeCompare(CompareOp::kGt, CRef(31, DataType::kInt64),
                         LitInt(1500));
    };
    ExpectIndexJoinMatchesApply(
        [&](PhysJoinKind kind) {
          return MakeIndexJoin(kind, MakeTableScan(p_, {0, 1}, {40, 41}), w_,
                               CRef(40, DataType::kInt64), res());
        },
        [&](PhysJoinKind kind) {
          return MakeApplyIndexSeek(kind, MakeTableScan(p_, {0, 1}, {40, 41}),
                                    w_, CRef(40, DataType::kInt64), res());
        },
        residual ? "IndexJoin(w) straddle+residual" : "IndexJoin(w) straddle");
  }
}

TEST_F(BatchExecTest, IndexJoinEmptyOuter) {
  ExpectIndexJoinMatchesApply(
      [&](PhysJoinKind kind) {
        return MakeIndexJoin(kind, MakeFilterOp(ScanT(), LitBool(false)), s_,
                             CRef(1, DataType::kInt64), nullptr);
      },
      [&](PhysJoinKind kind) {
        return MakeApplyIndexSeek(kind, MakeFilterOp(ScanT(), LitBool(false)),
                                  s_, CRef(1, DataType::kInt64), nullptr);
      },
      "IndexJoin(empty outer)");
}

// NULL probe keys match nothing (outer pads them, anti passes them), and
// the index's NULL-key rows are never found.
TEST_F(BatchExecTest, IndexJoinNullKeysNeverMatch) {
  ExpectIndexJoinMatchesApply(
      [&](PhysJoinKind kind) {
        return MakeIndexJoin(kind, MakeTableScan(p_, {0, 1}, {40, 41}), w_,
                             CRef(40, DataType::kInt64), nullptr);
      },
      [&](PhysJoinKind kind) {
        return MakeApplyIndexSeek(kind, MakeTableScan(p_, {0, 1}, {40, 41}),
                                  w_, CRef(40, DataType::kInt64), nullptr);
      },
      "IndexJoin(NULL keys)");
  PhysicalOpPtr inner =
      MakeIndexJoin(PhysJoinKind::kInner, MakeTableScan(p_, {0, 1}, {40, 41}),
                    w_, CRef(40, DataType::kInt64), nullptr);
  ExecContext ctx = MakeContext(true, 16, nullptr);
  Result<std::vector<Row>> rows = ExecuteToVector(inner.get(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  for (const Row& row : *rows) EXPECT_FALSE(row[2].is_null());
}

// A double probe key finds the int64 index key it equals.
TEST_F(BatchExecTest, IndexJoinDoubleProbeFindsInt64Key) {
  auto count_rows = [&](ColumnId key, DataType type, bool batched) {
    PhysicalOpPtr join =
        MakeIndexJoin(PhysJoinKind::kInner, MakeTableScan(p_, {0, 1}, {40, 41}),
                      s_, CRef(key, type), nullptr);
    ExecContext ctx = MakeContext(batched, 16, nullptr);
    Result<std::vector<Row>> rows = ExecuteToVector(join.get(), &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows->size() : 0;
  };
  const size_t by_int = count_rows(40, DataType::kInt64, true);
  EXPECT_GT(by_int, 0u);
  for (bool batched : {false, true}) {
    EXPECT_EQ(count_rows(41, DataType::kDouble, batched), by_int);
  }
  ExpectIndexJoinMatchesApply(
      [&](PhysJoinKind kind) {
        return MakeIndexJoin(kind, MakeTableScan(p_, {0, 1}, {40, 41}), s_,
                             CRef(41, DataType::kDouble), nullptr);
      },
      [&](PhysJoinKind kind) {
        return MakeApplyIndexSeek(kind, MakeTableScan(p_, {0, 1}, {40, 41}),
                                  s_, CRef(41, DataType::kDouble), nullptr);
      },
      "IndexJoin(double probe)");
}

// A vectorizable residual (evaluated a window at a time) and per-row ones
// (division). 100 / (k * 10 + 1 - v) divides by zero only on the second
// candidate of each matched key (v = k * 10 + 1), after the first
// candidate (v = k * 10) already passed: semi and anti joins stop at that
// first match and succeed, as the Apply does; inner and outer joins reach
// the zero and fail, as the Apply does.
TEST_F(BatchExecTest, IndexJoinResidualVectorizedAndPerRow) {
  auto vectorized = [] {
    return MakeCompare(CompareOp::kGt, CRef(31, DataType::kInt64),
                       CRef(1, DataType::kInt64));
  };
  auto per_row = [] {
    return MakeCompare(CompareOp::kGt,
                       MakeArith(ArithOp::kDiv, CRef(31, DataType::kInt64),
                                 LitInt(1)),
                       CRef(1, DataType::kInt64));
  };
  auto erroring = [] {
    ScalarExprPtr divisor = MakeArith(
        ArithOp::kSub,
        MakeArith(ArithOp::kAdd,
                  MakeArith(ArithOp::kMul, CRef(1, DataType::kInt64),
                            LitInt(10)),
                  LitInt(1)),
        CRef(31, DataType::kInt64));
    return MakeCompare(CompareOp::kGt,
                       MakeArith(ArithOp::kDiv, LitInt(100), divisor),
                       LitInt(0));
  };
  for (const auto& [residual, what] :
       std::vector<std::pair<std::function<ScalarExprPtr()>, std::string>>{
           {vectorized, "vectorized"},
           {per_row, "per-row"},
           {erroring, "per-row erroring"}}) {
    ExpectIndexJoinMatchesApply(
        [&](PhysJoinKind kind) {
          return MakeIndexJoin(kind, ScanT(), s_, CRef(1, DataType::kInt64),
                               residual());
        },
        [&](PhysJoinKind kind) {
          return MakeApplyIndexSeek(kind, ScanT(), s_,
                                    CRef(1, DataType::kInt64), residual());
        },
        "IndexJoin residual " + what);
  }
  for (PhysJoinKind kind :
       {PhysJoinKind::kInner, PhysJoinKind::kLeftOuter,
        PhysJoinKind::kLeftSemi, PhysJoinKind::kLeftAnti}) {
    const bool stops_at_first_match = kind == PhysJoinKind::kLeftSemi ||
                                      kind == PhysJoinKind::kLeftAnti;
    for (bool batched : {false, true}) {
      PhysicalOpPtr join = MakeIndexJoin(kind, ScanT(), s_,
                                         CRef(1, DataType::kInt64), erroring());
      ExecContext ctx = MakeContext(batched, 4, nullptr);
      EXPECT_EQ(ExecuteToVector(join.get(), &ctx).ok(), stops_at_first_match)
          << "kind=" << static_cast<int>(kind) << " batched=" << batched;
    }
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

// ExceptAll cancels one left row per right row under grouping semantics,
// in left stream order: duplicates one for one, NULL against NULL, and
// Int64(3) against Double(3.0). Same sequence in both modes, at every
// batch size, on every re-open.
TEST_F(BatchExecTest, ExceptAllCancelsInStreamOrder) {
  Table* left = *catalog_.CreateTable("el", {{"a", DataType::kInt64, true}});
  Table* right = *catalog_.CreateTable("er", {{"a", DataType::kDouble, true}});
  const Value null = Value::Null(DataType::kInt64);
  for (const Value& v : {Value::Int64(3), Value::Int64(1), Value::Int64(3),
                         null, Value::Int64(2), Value::Int64(3), null,
                         Value::Int64(3)}) {
    ASSERT_TRUE(left->Append({v}).ok());
  }
  for (const Value& v : {Value::Double(3.0), Value::Null(DataType::kDouble),
                         Value::Double(3.0), Value::Double(9.0)}) {
    ASSERT_TRUE(right->Append({v}).ok());
  }
  auto make = [&] {
    return MakeExceptAllOp(MakeTableScan(left, {0}, {1}),
                           MakeTableScan(right, {0}, {2}), {1});
  };
  const std::vector<std::string> want = {"[1]", "[2]", "[3]", "[NULL]",
                                         "[3]"};
  for (bool batched : {false, true}) {
    for (int batch_size : kBoundarySizes) {
      PhysicalOpPtr plan = make();
      ExecContext ctx = MakeContext(batched, batch_size, nullptr);
      for (int open = 0; open < 2; ++open) {
        Result<std::vector<Row>> rows = ExecuteToVector(plan.get(), &ctx);
        ASSERT_TRUE(rows.ok()) << rows.status().ToString();
        std::vector<std::string> got;
        for (const Row& row : *rows) got.push_back(RowToString(row));
        EXPECT_EQ(got, want) << "batched=" << batched
                             << " batch_size=" << batch_size
                             << " open=" << open;
      }
    }
  }
  ExpectColumnarMatchesRows(make, "ExceptAll(group semantics)");
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
  v->BuildIndex({0});
  PhysicalOpPtr index = MakeIndexJoinOp(
      PhysJoinKind::kLeftOuter, scan_t(), v, v->FindIndex({0}),
      {CRef(1, DataType::kInt64)}, {0, 1, 2}, {3, 4, 5}, nullptr, right_types);
  for (PhysicalOp* plan : {nl.get(), hash.get(), index.get()}) {
    for (bool batched : {true, false}) {
    ExecContext ctx = MakeContext(batched, 4, nullptr);
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
