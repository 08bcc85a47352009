// Columnar (SoA) execution unit tests: ColumnVec build/view mechanics and
// boundary cases (empty batches, all-null columns, string-arena growth,
// one type per column, string scatters), selection-vector behavior
// including all-filtered batches, column-wise hashing against RowHash,
// batch_size validation, and end-to-end row-vs-columnar equivalence at
// awkward batch boundaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "exec/column_batch.h"
#include "exec/exec.h"
#include "exec/key_columns.h"
#include "exec/ops.h"
#include "exec/vector_kernels.h"
#include "obs/report.h"
#include "server/session.h"
#include "tests/test_util.h"

namespace orq {
namespace {

TEST(ColumnVecTest, TypedBuildRoundTrips) {
  ColumnVec col;
  col.StartBuild(DataType::kInt64, 4);
  col.AppendInt(7);
  col.AppendNull();
  col.AppendInt(-3);
  col.Seal();
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.rep(), ColumnRep::kInts);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.IntAt(2), -3);
  EXPECT_EQ(col.GetValue(0).int64_value(), 7);
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(1).type(), DataType::kInt64);
}

TEST(ColumnVecTest, StringArenaGrowthKeepsAllValues) {
  // Enough variable-length strings to force several arena reallocations
  // during the build; Seal must leave every offset/byte pair consistent.
  ColumnVec col;
  const int n = 2000;
  col.StartBuild(DataType::kString, 4);  // deliberately tiny reserve
  std::vector<std::string> expect;
  for (int i = 0; i < n; ++i) {
    std::string s(static_cast<size_t>(i % 97), 'a' + i % 26);
    s += std::to_string(i);
    expect.push_back(s);
    col.AppendStr(s);
  }
  col.Seal();
  ASSERT_EQ(col.size(), static_cast<uint32_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(std::string(col.StrAt(i)), expect[i]) << i;
  }
}

TEST(ColumnVecTest, AppendValueRejectsAnotherType) {
  ColumnVec col;
  col.StartBuild(DataType::kInt64, 4);
  EXPECT_TRUE(col.AppendValue(Value::Int64(3)).ok());
  EXPECT_TRUE(col.AppendValue(Value::Null(DataType::kString)).ok());
  EXPECT_EQ(col.AppendValue(Value::Double(3.0)).code(), StatusCode::kInternal);
  col.Seal();
  ASSERT_EQ(col.rep(), ColumnRep::kInts);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.IntAt(0), 3);
  EXPECT_TRUE(col.IsNull(1));
  // A row batch takes each column's type from its first non-NULL value.
  ColumnBatch batch(4);
  const std::vector<Row> rows = {{Value::Null(DataType::kInt64)},
                                 {Value::Double(1.5)}};
  ASSERT_TRUE(batch.SetRows(rows.data(), 2, 1).ok());
  EXPECT_EQ(batch.col(0).rep(), ColumnRep::kDoubles);
  const std::vector<Row> mixed = {{Value::Int64(1)}, {Value::Double(1.5)}};
  EXPECT_EQ(batch.SetRows(mixed.data(), 2, 1).code(), StatusCode::kInternal);
}

TEST(ColumnVecTest, StringScatterFollowsTheSelection) {
  // A string scatter writes its arena in selection order; rows it skips
  // read as empty strings, whatever the batch size.
  for (uint32_t n : {1u, 1023u, 1025u}) {
    std::vector<uint32_t> sel;
    for (uint32_t i = 0; i < n; i += 7) sel.push_back(i);
    if (sel.back() != n - 1) sel.push_back(n - 1);
    ColumnVec col;
    col.PrepareScatter(DataType::kString, n);
    bool any_null = false;
    for (uint32_t i : sel) {
      if (i % 3 == 1) {
        ASSERT_TRUE(col.ScatterValue(i, Value::Null(DataType::kString)).ok());
        any_null = true;
      } else {
        ASSERT_TRUE(
            col.ScatterValue(i, Value::String(std::string(i % 40, 'x') +
                                              std::to_string(i)))
                .ok());
      }
    }
    EXPECT_EQ(col.ScatterValue(0, Value::Int64(1)).code(),
              StatusCode::kInternal);
    col.SetAnyNull(any_null);
    ASSERT_EQ(col.size(), n);
    size_t next = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const bool selected = next < sel.size() && sel[next] == i;
      if (selected) ++next;
      if (selected && i % 3 == 1) {
        EXPECT_TRUE(col.IsNull(i)) << n << " " << i;
      } else if (selected) {
        EXPECT_EQ(std::string(col.StrAt(i)),
                  std::string(i % 40, 'x') + std::to_string(i))
            << n << " " << i;
      } else {
        EXPECT_FALSE(col.IsNull(i));
        EXPECT_EQ(col.StrAt(i), "") << n << " " << i;
      }
    }
  }
}

TEST(ColumnBatchTest, EmptyBatchHasNoSelectedRows) {
  ColumnBatch batch(16);
  EXPECT_EQ(batch.selected(), 0u);
  batch.ResizeCols(2);
  EXPECT_EQ(batch.selected(), 0u);
  batch.Clear();
  EXPECT_EQ(batch.num_cols(), 2u);  // columns survive Clear for reuse
  EXPECT_EQ(batch.selected(), 0u);
}

TEST(ColumnBatchTest, SelectionVectorRestrictsRowAt) {
  ColumnBatch batch(8);
  batch.ResizeCols(1);
  ColumnVec& col = batch.col(0);
  col.StartBuild(DataType::kInt64, 4);
  for (int i = 0; i < 4; ++i) col.AppendInt(i * 10);
  col.Seal();
  batch.set_num_rows(4);
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.selected(), 4u);
  EXPECT_EQ(batch.RowAt(2), 2u);

  std::vector<uint32_t>* sel = batch.MutableSelection();
  sel->assign({1, 3});
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.selected(), 2u);
  EXPECT_EQ(batch.RowAt(1), 3u);
  EXPECT_EQ(batch.col(0).IntAt(batch.RowAt(0)), 10);

  Row row;
  batch.DecodeRow(batch.RowAt(1), &row);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0].int64_value(), 30);
}

TEST(ColumnBatchTest, AllNullColumnHashesLikeRowHash) {
  // An all-null key column must bucket exactly like the row engine's
  // RowHash over decoded rows — nulls included.
  ColumnBatch batch(8);
  batch.ResizeCols(1);
  ColumnVec& col = batch.col(0);
  col.StartBuild(DataType::kInt64, 3);
  for (int i = 0; i < 3; ++i) col.AppendNull();
  col.Seal();
  batch.set_num_rows(3);

  std::vector<size_t> hashes;
  InitKeyHashes(batch, &hashes);
  HashCombineColumn(batch, batch.col(0), &hashes);
  ASSERT_EQ(hashes.size(), 3u);
  Row decoded;
  for (uint32_t j = 0; j < 3; ++j) {
    batch.DecodeRow(batch.RowAt(j), &decoded);
    EXPECT_EQ(hashes[j], RowHash{}(decoded)) << j;
    EXPECT_TRUE(decoded[0].is_null());
  }
  // Null refs group-compare equal regardless of declared type.
  EXPECT_EQ(TotalCompareRefs(LoadElem(col, 0),
                             LoadValue(Value::Null(DataType::kString))),
            0);
}

TEST(ColumnBatchTest, MixedTypeHashesMatchRowHash) {
  ColumnBatch batch(8);
  batch.ResizeCols(2);
  ColumnVec& a = batch.col(0);
  a.StartBuild(DataType::kInt64, 3);
  a.AppendInt(42);
  a.AppendNull();
  a.AppendInt(-7);
  a.Seal();
  ColumnVec& b = batch.col(1);
  b.StartBuild(DataType::kString, 3);
  b.AppendStr("x");
  b.AppendStr("");
  b.AppendNull();
  b.Seal();
  batch.set_num_rows(3);

  std::vector<size_t> hashes;
  InitKeyHashes(batch, &hashes);
  HashCombineColumn(batch, batch.col(0), &hashes);
  HashCombineColumn(batch, batch.col(1), &hashes);
  Row decoded;
  for (uint32_t j = 0; j < 3; ++j) {
    batch.DecodeRow(batch.RowAt(j), &decoded);
    EXPECT_EQ(hashes[j], RowHash{}(decoded)) << j;
  }
}

TEST(ValidateBatchSizeTest, RejectsOutOfRangeCleanly) {
  EXPECT_TRUE(ValidateBatchSize(1).ok());
  EXPECT_TRUE(ValidateBatchSize(1024).ok());
  EXPECT_TRUE(ValidateBatchSize(kMaxBatchRows).ok());
  for (int bad : {0, -1, kMaxBatchRows + 1, 1 << 20}) {
    Status status = ValidateBatchSize(bad);
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.ToString().find("batch_size"), std::string::npos);
  }
}

TEST(ValidateBatchSizeTest, SessionSetAndEngineShareTheCheck) {
  Session session(1, EngineOptions::Full(), 0);
  EXPECT_TRUE(session.ApplySet("batch_size 65536").ok());
  EXPECT_FALSE(session.ApplySet("batch_size 0").ok());
  EXPECT_FALSE(session.ApplySet("batch_size 65537").ok());
  EXPECT_TRUE(session.ApplySet("exec row").ok());
  EXPECT_FALSE(session.engine_options().exec.batched);
  EXPECT_TRUE(session.ApplySet("exec columnar").ok());
  EXPECT_TRUE(session.engine_options().exec.batched);
  EXPECT_FALSE(session.ApplySet("exec vector").ok());

  // The engine applies the same predicate at execution time, so an
  // out-of-range value set programmatically still fails cleanly.
  Catalog catalog;
  Result<Table*> t = catalog.CreateTable(
      "t", {{"k", DataType::kInt64, false}});
  ASSERT_TRUE(t.ok());
  EngineOptions options = EngineOptions::Full();
  options.exec.batch_size = 0;
  QueryEngine engine(&catalog, options);
  Result<QueryResult> result = engine.Execute("select k from t");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("batch_size"),
            std::string::npos);
}

TEST(ExecModeTest, SetExecAcceptsRowAndColumnarOnly) {
  Session session(1, EngineOptions::Full(), 0);
  EXPECT_TRUE(session.engine_options().exec.batched);  // columnar default
  // The retired row-batch mode is rejected with a message that names the
  // two modes left, and the session keeps its options.
  Status batch = session.ApplySet("exec batch");
  ASSERT_EQ(batch.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(batch.ToString().find("retired"), std::string::npos);
  EXPECT_NE(batch.ToString().find("columnar"), std::string::npos);
  EXPECT_TRUE(session.engine_options().exec.batched);
  // SET batch on|off is gone: one mode knob, so no hybrid of the two.
  EXPECT_EQ(session.ApplySet("batch off").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.engine_options().exec.batched);
}

TEST(ExecModeTest, ColumnarComposesWithThreads) {
  // Either SET order works; the exchange moves column batches.
  Session session(1, EngineOptions::Full(), 0);
  EXPECT_TRUE(session.ApplySet("exec columnar").ok());
  EXPECT_TRUE(session.ApplySet("threads 4").ok());
  EXPECT_EQ(session.engine_options().exec.num_threads, 4);
  EXPECT_TRUE(session.ApplySet("exec row").ok());
  EXPECT_TRUE(session.ApplySet("exec columnar").ok());

  const std::string sql =
      "select g, count(*), sum(k) from t where k > 100 group by g";
  EngineOptions serial = EngineOptions::Full();
  serial.exec.batched = false;
  EngineOptions parallel = EngineOptions::Full();
  parallel.exec.num_threads = 2;
  parallel.exec.morsel_rows = 512;
  Catalog catalog;
  Table* t = *catalog.CreateTable("t", {{"k", DataType::kInt64, false},
                                        {"g", DataType::kInt64, false}});
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(t->Append({Value::Int64(i), Value::Int64(i % 7)}).ok());
  }
  Result<QueryResult> expect = QueryEngine(&catalog, serial).Execute(sql);
  Result<QueryResult> actual = QueryEngine(&catalog, parallel).Execute(sql);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(CanonicalRows(expect->rows), CanonicalRows(actual->rows));
}

// Tables have one storage layout: no session knob selects an encoding.
TEST(ExecModeTest, StorageLayoutIsNotASessionOption) {
  Session session(1, EngineOptions::Full(), 0);
  Status knob = session.ApplySet("table_encoding auto");
  ASSERT_EQ(knob.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(knob.ToString().find("unknown SET option"), std::string::npos);
}

class ChunkViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 40 rows over every typed layout (int64, double, date, bool, string),
    // each column with NULLs.
    for (int i = 0; i < 40; ++i) {
      rows_.push_back(
          {i % 9 == 0 ? Value::Null(DataType::kInt64) : Value::Int64(i * 7 % 41),
           i % 7 == 0 ? Value::Null(DataType::kDouble) : Value::Double(i * 0.5),
           i % 6 == 0 ? Value::Null(DataType::kDate) : Value::Date(9000 + i),
           i % 5 == 0 ? Value::Null(DataType::kBool) : Value::Bool(i % 2 == 0),
           i % 11 == 0 ? Value::Null(DataType::kString)
                       : Value::String("group_name_" + std::to_string(i % 3))});
    }
  }

  /// A fresh table holding rows_.
  const Table* Load() {
    Table* table = *catalog_.CreateTable("e", {{"i", DataType::kInt64, true},
                                               {"d", DataType::kDouble, true},
                                               {"dt", DataType::kDate, true},
                                               {"b", DataType::kBool, true},
                                               {"s", DataType::kString, true}});
    for (const Row& row : rows_) EXPECT_TRUE(table->Append(row).ok());
    return table;
  }

  /// Asserts the windowed view decodes to exactly rows_ [pos, pos + n)
  /// for column `c` — the chunk-boundary resume a scan performs when a
  /// batch ends mid-table.
  void ExpectWindowRoundTrips(const TypedColumn& chunk, int c,
                              size_t pos, uint32_t n) {
    ColumnVec col;
    ViewTypedColumn(chunk, pos, n, &col);
    for (uint32_t i = 0; i < n; ++i) {
      const Value& want = rows_[pos + i][c];
      Value got = col.GetValue(i);
      EXPECT_EQ(want.is_null(), got.is_null()) << "col " << c << " row " << i;
      if (!want.is_null()) {
        EXPECT_EQ(want.type(), got.type()) << "col " << c << " row " << i;
        EXPECT_EQ(want.TotalCompare(got), 0) << "col " << c << " row " << i;
      }
    }
  }

  Catalog catalog_;
  std::vector<Row> rows_;
};

TEST_F(ChunkViewTest, ViewsRoundTripWithWindows) {
  const std::vector<TypedColumn>& chunks = Load()->ColumnarChunks();
  ASSERT_EQ(chunks.size(), 5u);
  for (int c = 0; c < 5; ++c) {
    ExpectWindowRoundTrips(chunks[c], c, 0, 40);
    ExpectWindowRoundTrips(chunks[c], c, 7, 33);  // mid-table resume
    ExpectWindowRoundTrips(chunks[c], c, 39, 1);  // last row
  }
}

TEST_F(ChunkViewTest, ColumnHashParityWithRowHash) {
  // Column-wise hashing over chunk views must equal RowHash over the
  // decoded rows — the invariant that lets columnar probes share key
  // tables with Row-keyed inserts.
  const std::vector<TypedColumn>& chunks = Load()->ColumnarChunks();
  ColumnBatch batch(64);
  batch.ResizeCols(5);
  for (int c = 0; c < 5; ++c) {
    ViewTypedColumn(chunks[c], 0, 40, &batch.col(c));
  }
  batch.set_num_rows(40);
  std::vector<size_t> hashes;
  InitKeyHashes(batch, &hashes);
  for (int c = 0; c < 5; ++c) {
    HashCombineColumn(batch, batch.col(c), &hashes);
  }
  Row decoded;
  for (uint32_t j = 0; j < 40; ++j) {
    batch.DecodeRow(batch.RowAt(j), &decoded);
    EXPECT_EQ(hashes[j], RowHash{}(decoded)) << "row " << j;
  }
}

class ColumnarExecTest : public ::testing::Test {
 protected:
  void SetUp() override { Load(&catalog_); }

  // 16 rows and batch_size 8: scans hit the batch capacity exactly, so
  // every boundary (full batch, exact multiple, EOS-on-empty) is
  // exercised. Includes nulls, strings, doubles, and negatives.
  static void Load(Catalog* catalog) {
    Table* t = *catalog->CreateTable("t", {{"k", DataType::kInt64, false},
                                           {"v", DataType::kInt64, true},
                                           {"d", DataType::kDouble, true},
                                           {"s", DataType::kString, true}});
    for (int i = 0; i < 16; ++i) {
      Row row{Value::Int64(i),
              i % 5 == 0 ? Value::Null(DataType::kInt64)
                         : Value::Int64(i * 3 - 20),
              i % 7 == 0 ? Value::Null(DataType::kDouble)
                         : Value::Double(i * 0.5),
              i % 4 == 0 ? Value::Null(DataType::kString)
                         : Value::String("s" + std::to_string(i % 3))};
      ASSERT_TRUE(t->Append(std::move(row)).ok());
    }
    Table* u = *catalog->CreateTable("u", {{"fk", DataType::kInt64, false},
                                           {"w", DataType::kInt64, true}});
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(u->Append({Value::Int64(i % 6),
                             i % 3 == 0 ? Value::Null(DataType::kInt64)
                                        : Value::Int64(i)})
                      .ok());
    }
  }

  // Runs `sql` in both modes with batch_size 8 and expects identical row
  // multisets.
  void ExpectModesAgree(const std::string& sql) {
    EngineOptions row_options = EngineOptions::Full();
    row_options.exec.batched = false;
    row_options.exec.batch_size = 8;
    EngineOptions col_options = EngineOptions::Full();
    col_options.exec.batch_size = 8;
    QueryEngine row_engine(&catalog_, row_options);
    QueryEngine col_engine(&catalog_, col_options);
    Result<QueryResult> expect = row_engine.Execute(sql);
    Result<QueryResult> actual = col_engine.Execute(sql);
    ASSERT_TRUE(expect.ok()) << sql << ": " << expect.status().ToString();
    ASSERT_TRUE(actual.ok()) << sql << ": " << actual.status().ToString();
    EXPECT_EQ(CanonicalRows(expect->rows), CanonicalRows(actual->rows)) << sql;
  }

  Catalog catalog_;
};

TEST_F(ColumnarExecTest, FilterMatchesRowMode) {
  ExpectModesAgree("select k, v from t where v > 0");
  ExpectModesAgree("select k from t where v > 0 and d < 6.0 and s = 's1'");
  ExpectModesAgree("select k from t where s <> 's0'");
  // All rows filtered out: the selection vector empties and the scan must
  // still drive to a clean EOS.
  ExpectModesAgree("select k from t where v > 1000");
  // All rows kept at exactly batch capacity.
  ExpectModesAgree("select k from t where k >= 0");
}

TEST_F(ColumnarExecTest, ComputeAndAggregateMatchRowMode) {
  ExpectModesAgree("select k + 1, d * 2.0, -v from t");
  ExpectModesAgree(
      "select s, sum(v), count(*), min(d), max(k) from t group by s");
  ExpectModesAgree("select sum(v), count(v), avg(d) from t");
  ExpectModesAgree("select count(*) from t where v is null");
}

TEST_F(ColumnarExecTest, JoinsMatchRowMode) {
  ExpectModesAgree(
      "select k, w from t, u where k = fk");
  ExpectModesAgree(
      "select k, sum(w) from t, u where k = fk group by k");
  ExpectModesAgree(
      "select k from t where exists (select 1 from u where fk = k)");
  ExpectModesAgree(
      "select k from t where not exists (select 1 from u where fk = k)");
}

TEST_F(ColumnarExecTest, StringResultsScatterAtAwkwardBatchSizes) {
  // A row-evaluated string CASE under a sparse selection (the IN list
  // filters), at batch sizes 1, 1023 and 1025 over 2,100 rows.
  Table* big = *catalog_.CreateTable("big", {{"k", DataType::kInt64, false},
                                             {"s", DataType::kString, true}});
  for (int i = 0; i < 2100; ++i) {
    ASSERT_TRUE(big->Append({Value::Int64(i),
                             i % 11 == 0 ? Value::Null(DataType::kString)
                                         : Value::String("s" +
                                                         std::to_string(i))})
                    .ok());
  }
  const std::string sql =
      "select k, case when k > 1000 then s when k > 3 then 'mid' end from "
      "big where k in (0, 3, 4, 11, 1022, 1023, 1024, 1025, 1100, 2047, "
      "2048, 2099)";
  EngineOptions row_options = EngineOptions::Full();
  row_options.exec.batched = false;
  QueryEngine row_engine(&catalog_, row_options);
  Result<QueryResult> expect = row_engine.Execute(sql);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  ASSERT_EQ(expect->rows.size(), 12u);
  for (int batch_size : {1, 1023, 1025}) {
    EngineOptions options = EngineOptions::Full();
    options.exec.batch_size = batch_size;
    QueryEngine engine(&catalog_, options);
    Result<QueryResult> actual = engine.Execute(sql);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(CanonicalRows(expect->rows), CanonicalRows(actual->rows))
        << "batch_size " << batch_size;
  }
}

TEST_F(ColumnarExecTest, SubqueryPlansMatchRowMode) {
  ExpectModesAgree(
      "select k from t where v < (select sum(w) from u where fk = k)");
  ExpectModesAgree(
      "select k, (select count(*) from u where fk = k) from t");
}

TEST_F(ColumnarExecTest, StatsInvariantHoldsColumnar) {
  EngineOptions options = EngineOptions::Full();
  options.exec.batch_size = 8;
  QueryEngine engine(&catalog_, options);
  Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(
      "select s, sum(v) from t where k > 2 group by s");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  // Every row the engine counted must be accounted for by the per-operator
  // stats tree, columnar shells included.
  EXPECT_EQ(TotalRowsOut(analyzed->plan),
            analyzed->result.rows_produced);
  // At least one operator actually ran columnar, and the report surfaces
  // the mode.
  Result<std::string> report = engine.ExplainAnalyze(
      "select s, sum(v) from t where k > 2 group by s");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("mode=columnar"), std::string::npos) << *report;
}

}  // namespace
}  // namespace orq
