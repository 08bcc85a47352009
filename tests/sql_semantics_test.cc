// End-to-end SQL semantics tests: the NULL/three-valued-logic and
// empty-input corner cases the paper's rewrites must preserve, verified
// through the full engine (and therefore through decorrelation).
#include <gtest/gtest.h>

#include "engine/engine.h"

namespace orq {
namespace {

class SqlSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // t(k, v): v has NULLs.   s(w): contains a NULL.   empty(x): no rows.
    Table* t = *catalog_.CreateTable("t", {{"k", DataType::kInt64, false},
                                           {"v", DataType::kInt64, true}});
    t->SetPrimaryKey({0});
    ASSERT_TRUE(t->Append({Value::Int64(1), Value::Int64(10)}).ok());
    ASSERT_TRUE(t->Append({Value::Int64(2), Value::Null()}).ok());
    ASSERT_TRUE(t->Append({Value::Int64(3), Value::Int64(30)}).ok());

    Table* s = *catalog_.CreateTable("s", {{"w", DataType::kInt64, true}});
    ASSERT_TRUE(s->Append({Value::Int64(10)}).ok());
    ASSERT_TRUE(s->Append({Value::Null()}).ok());

    (void)*catalog_.CreateTable("empty", {{"x", DataType::kInt64, true}});
  }

  QueryResult Run(const std::string& sql) {
    QueryEngine engine(&catalog_);
    Result<QueryResult> result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? *result : QueryResult{};
  }

  Catalog catalog_;
};

TEST_F(SqlSemanticsTest, WhereDropsUnknown) {
  // v = 10 is unknown for the NULL row: only k=1 survives.
  EXPECT_EQ(Run("select k from t where v = 10").rows.size(), 1u);
  // NOT (v = 10) is also unknown for NULL: only k=3.
  EXPECT_EQ(Run("select k from t where not v = 10").rows.size(), 1u);
}

TEST_F(SqlSemanticsTest, InListWithNull) {
  // v in (10): k=1 only. v in (10, NULL): still only k=1 in WHERE context.
  EXPECT_EQ(Run("select k from t where v in (10, null)").rows.size(), 1u);
  // not in with NULL in the list filters everything (always unknown or
  // false).
  EXPECT_EQ(Run("select k from t where v not in (10, null)").rows.size(),
            0u);
}

TEST_F(SqlSemanticsTest, NotInSubqueryWithNullInResult) {
  // s contains NULL: x NOT IN s is never TRUE -> empty result. This is the
  // classic trap that the antijoin rewrite must preserve (section 2.4).
  EXPECT_EQ(Run("select k from t where k not in (select w from s)")
                .rows.size(),
            0u);
  // Against an empty subquery, NOT IN is TRUE for every row.
  EXPECT_EQ(Run("select k from t where k not in (select x from empty)")
                .rows.size(),
            3u);
}

TEST_F(SqlSemanticsTest, NotInWithNullProbeNeverPasses) {
  // The probe side carries the NULL this time: v NOT IN {10} is UNKNOWN
  // for the v=NULL row, so only k=3 (v=30) survives. The antijoin rewrite
  // must not let the NULL probe row slip through (a NULL on either side of
  // the anti-join comparison may not admit the outer row).
  EXPECT_EQ(Run("select k from t where v not in "
                "(select w from s where w is not null)")
                .rows.size(),
            1u);
  // Same probe against an empty set: NOT IN is TRUE for every row,
  // including the NULL probe.
  EXPECT_EQ(Run("select k from t where v not in (select x from empty)")
                .rows.size(),
            3u);
}

TEST_F(SqlSemanticsTest, NotExistsPassesWhereNotInDoesNot) {
  // Contrast with NOT IN: NOT EXISTS is purely two-valued. For the v=NULL
  // row the correlated comparison matches nothing, so NOT EXISTS is TRUE
  // and k=2 passes — as does k=3 (30 matches no w). Only k=1 matches.
  EXPECT_EQ(Run("select k from t where not exists "
                "(select * from s where s.w = t.v)")
                .rows.size(),
            2u);
}

TEST_F(SqlSemanticsTest, NotInCorrelatedWithNullsOnBothSides) {
  // Correlated NOT IN where both the probe (v) and the subquery rows (w)
  // carry NULLs. Subquery per outer row: {w : w IS NULL OR w >= v}.
  // k=1 (v=10):   {NULL, 10} -> 10 NOT IN: matches 10 -> FALSE -> drop.
  // k=2 (v=NULL): {NULL}     -> NULL NOT IN {NULL} -> UNKNOWN -> drop.
  // k=3 (v=30):   {NULL}     -> 30 NOT IN {NULL} -> UNKNOWN -> drop.
  // Every row drops, each for a different three-valued-logic reason.
  EXPECT_EQ(Run("select k from t where v not in "
                "(select w from s where s.w is null or s.w >= t.v)")
                .rows.size(),
            0u);
  // Flip to IN: only k=1 has a definite match.
  QueryResult in_result = Run(
      "select k from t where v in "
      "(select w from s where s.w is null or s.w >= t.v)");
  ASSERT_EQ(in_result.rows.size(), 1u);
  EXPECT_EQ(in_result.rows[0][0].int64_value(), 1);
}

TEST_F(SqlSemanticsTest, NotEqualAllIsNotInDual) {
  // x <> ALL (...) is exactly NOT IN: NULL in the subquery result poisons
  // every definite pass.
  EXPECT_EQ(Run("select k from t where k <> all (select w from s)")
                .rows.size(),
            0u);
  EXPECT_EQ(Run("select k from t where k <> all "
                "(select w from s where w is not null)")
                .rows.size(),
            3u);  // k values {1,2,3} never equal w=10
  EXPECT_EQ(Run("select k from t where v <> all "
                "(select w from s where w is not null)")
                .rows.size(),
            1u);  // v=10 fails, v=NULL unknown, v=30 passes
}

// The correlated matrix for NOT IN, `<> ALL` and `>= ALL`. Each
// decorrelates to an anti join keyed on the correlation (i.g = o.g) whose
// residual is the quantified comparison OR its IS NULL, and runs as a hash
// join. Outer rows by group:
//   g1: x = 5, empty group           -> TRUE for all three
//   g2: x = 5, group {3, NULL}       -> UNKNOWN for all three
//   g3: x = NULL, group {4}          -> UNKNOWN for all three
//   g4: x = NULL, empty group        -> TRUE for all three
//   g5: x = 7, group {7, 8}          -> FALSE for all three
//   g6: x = 9, group {7, 8}          -> TRUE for all three
//   g7: x = 8, group {7, 8}          -> FALSE for NOT IN, TRUE for >= ALL
// Checked in the row engine, the columnar engine and with 4 workers.
TEST_F(SqlSemanticsTest, CorrelatedNotInAndAllMatrix) {
  Table* o = *catalog_.CreateTable("o", {{"id", DataType::kInt64, false},
                                         {"g", DataType::kInt64, false},
                                         {"x", DataType::kInt64, true}});
  Table* i = *catalog_.CreateTable("i", {{"g", DataType::kInt64, false},
                                         {"y", DataType::kInt64, true}});
  const Value null = Value::Null(DataType::kInt64);
  const std::vector<std::vector<Value>> outer = {
      {Value::Int64(1), Value::Int64(1), Value::Int64(5)},
      {Value::Int64(2), Value::Int64(2), Value::Int64(5)},
      {Value::Int64(3), Value::Int64(3), null},
      {Value::Int64(4), Value::Int64(4), null},
      {Value::Int64(5), Value::Int64(5), Value::Int64(7)},
      {Value::Int64(6), Value::Int64(6), Value::Int64(9)},
      {Value::Int64(7), Value::Int64(7), Value::Int64(8)}};
  for (const std::vector<Value>& row : outer) {
    ASSERT_TRUE(o->Append(row).ok());
  }
  const std::vector<std::vector<Value>> inner = {
      {Value::Int64(2), Value::Int64(3)}, {Value::Int64(2), null},
      {Value::Int64(3), Value::Int64(4)}, {Value::Int64(5), Value::Int64(7)},
      {Value::Int64(5), Value::Int64(8)}, {Value::Int64(6), Value::Int64(7)},
      {Value::Int64(6), Value::Int64(8)}, {Value::Int64(7), Value::Int64(7)},
      {Value::Int64(7), Value::Int64(8)}};
  for (const std::vector<Value>& row : inner) {
    ASSERT_TRUE(i->Append(row).ok());
  }
  const std::vector<std::pair<std::string, std::vector<int64_t>>> cases = {
      {"x not in (select y from i where i.g = o.g)", {1, 4, 6}},
      {"x <> all (select y from i where i.g = o.g)", {1, 4, 6}},
      {"x >= all (select y from i where i.g = o.g)", {1, 4, 6, 7}}};
  struct Mode {
    const char* name;
    bool batched;
    int threads;
  };
  for (const Mode& mode : {Mode{"row", false, 0}, Mode{"columnar", true, 0},
                           Mode{"threads 4", true, 4}}) {
    EngineOptions options = EngineOptions::Full();
    options.exec.batched = mode.batched;
    options.exec.num_threads = mode.threads;
    QueryEngine engine(&catalog_, options);
    for (const auto& [where, want] : cases) {
      const std::string sql =
          "select id from o where " + where + " order by id";
      Result<QueryResult> result = engine.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      std::vector<int64_t> got;
      for (const Row& row : result->rows) got.push_back(row[0].int64_value());
      EXPECT_EQ(got, want) << mode.name << ": " << sql;
    }
  }
}

// An int64 compared with a string is UNKNOWN, so over NOT NULL columns of
// different comparison classes NOT IN rejects every row whose subquery
// (or correlation group: only n = 3 has none) is non-empty, and the
// comparison's IS NULL holds on every row.
TEST_F(SqlSemanticsTest, NotInAcrossComparisonClassesOverNotNullColumns) {
  Table* c = *catalog_.CreateTable("c", {{"n", DataType::kInt64, false},
                                         {"name", DataType::kString, false}});
  Table* cs = *catalog_.CreateTable("cs", {{"m", DataType::kString, false}});
  for (int64_t n : {1, 2, 3}) {
    ASSERT_TRUE(
        c->Append({Value::Int64(n), Value::String(std::to_string(n))}).ok());
  }
  for (const char* m : {"1", "2", "x"}) {
    ASSERT_TRUE(cs->Append({Value::String(m)}).ok());
  }
  const std::vector<std::pair<std::string, size_t>> cases = {
      {"select n from c where n not in (select m from cs)", 0},
      {"select n from c where n not in (select m from cs where m = 'y')", 3},
      {"select n from c where n not in (select m from cs where m = name)", 1},
      {"select n from c where (n = name) is null", 3},
      {"select n from c where n <> all (select m from cs)", 0}};
  for (bool batched : {false, true}) {
    for (int threads : {0, 4}) {
      if (!batched && threads > 0) continue;
      EngineOptions options = EngineOptions::Full();
      options.exec.batched = batched;
      options.exec.num_threads = threads;
      QueryEngine engine(&catalog_, options);
      for (const auto& [sql, want] : cases) {
        Result<QueryResult> result = engine.Execute(sql);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        EXPECT_EQ(result->rows.size(), want)
            << (batched ? "columnar" : "row") << " threads=" << threads
            << ": " << sql;
      }
    }
  }
}

TEST_F(SqlSemanticsTest, InSubqueryMatchesThroughNull) {
  // k=1... v values {10, NULL, 30}; w values {10, NULL}.
  EXPECT_EQ(Run("select k from t where v in (select w from s)").rows.size(),
            1u);
}

TEST_F(SqlSemanticsTest, QuantifiedOverEmptyIsTrueForAll) {
  // > ALL over the empty set is TRUE for every row.
  EXPECT_EQ(
      Run("select k from t where v > all (select x from empty)").rows.size(),
      3u);
  // > ANY over the empty set is FALSE.
  EXPECT_EQ(
      Run("select k from t where v > any (select x from empty)").rows.size(),
      0u);
}

TEST_F(SqlSemanticsTest, QuantifiedWithNulls) {
  // v > ALL (select w from s): s contains NULL, so the comparison can
  // never be definitely true.
  EXPECT_EQ(Run("select k from t where v > all (select w from s)")
                .rows.size(),
            0u);
  // v > ANY: 30 > 10 is definitely true; NULL w contributes unknown.
  EXPECT_EQ(Run("select k from t where v > any (select w from s)")
                .rows.size(),
            1u);
}

TEST_F(SqlSemanticsTest, ScalarVsVectorAggregateOnEmpty) {
  // Section 1.1: scalar aggregation returns exactly one row on empty
  // input; vector aggregation returns none.
  QueryResult scalar = Run("select sum(x), count(*) from empty");
  ASSERT_EQ(scalar.rows.size(), 1u);
  EXPECT_TRUE(scalar.rows[0][0].is_null());
  EXPECT_EQ(scalar.rows[0][1].int64_value(), 0);

  QueryResult vector = Run("select x, sum(x) from empty group by x");
  EXPECT_EQ(vector.rows.size(), 0u);
}

TEST_F(SqlSemanticsTest, EmptyScalarSubqueryIsNull) {
  QueryResult result =
      Run("select k, (select x from empty) from t order by k");
  ASSERT_EQ(result.rows.size(), 3u);
  for (const Row& row : result.rows) EXPECT_TRUE(row[1].is_null());
}

TEST_F(SqlSemanticsTest, Max1rowErrorSurfacesThroughSql) {
  QueryEngine engine(&catalog_);
  // s has two rows: the scalar subquery must raise the run-time error.
  Result<QueryResult> result =
      engine.Execute("select k, (select w from s) from t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCardinalityViolation);
}

TEST_F(SqlSemanticsTest, Max1rowCorrelatedCardinalityViolation) {
  // Correlated scalar subquery that returns two rows for the v=10 outer
  // row: the Max1row guard must raise kCardinalityViolation at run time —
  // through the Volcano Next chain and out of QueryEngine::Execute — and
  // must do so on the decorrelated plan as well as the literal Apply plan
  // (no silent truncation to the first row on either path).
  Table* dup = *catalog_.CreateTable("dup", {{"d", DataType::kInt64, true}});
  ASSERT_TRUE(dup->Append({Value::Int64(10)}).ok());
  ASSERT_TRUE(dup->Append({Value::Int64(10)}).ok());

  const std::string sql = "select k, (select d from dup where d = t.v) from t";
  QueryEngine full(&catalog_);
  Result<QueryResult> full_result = full.Execute(sql);
  ASSERT_FALSE(full_result.ok());
  EXPECT_EQ(full_result.status().code(), StatusCode::kCardinalityViolation);

  QueryEngine correlated(&catalog_, EngineOptions::CorrelatedOnly());
  Result<QueryResult> apply_result = correlated.Execute(sql);
  ASSERT_FALSE(apply_result.ok());
  EXPECT_EQ(apply_result.status().code(), StatusCode::kCardinalityViolation);

  // A key-pinned correlation stays within one row and must not error.
  Result<QueryResult> pinned =
      full.Execute("select k, (select v from t t2 where t2.k = t.k) from t");
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->rows.size(), 3u);
}

TEST_F(SqlSemanticsTest, DivisionByZeroSurfaces) {
  QueryEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute("select k / 0 from t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRuntimeError);
}

TEST_F(SqlSemanticsTest, AvgIgnoresNullsAndHandlesAllNull) {
  QueryResult result = Run("select avg(v) from t");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0][0].double_value(), 20.0);  // (10+30)/2

  QueryResult all_null = Run("select avg(v) from t where v is null");
  ASSERT_EQ(all_null.rows.size(), 1u);
  EXPECT_TRUE(all_null.rows[0][0].is_null());
}

TEST_F(SqlSemanticsTest, CountDistinctIgnoresNulls) {
  QueryResult result = Run("select count(distinct w) from s");
  EXPECT_EQ(result.rows[0][0].int64_value(), 1);
}

TEST_F(SqlSemanticsTest, GroupByTreatsNullsAsOneGroup) {
  QueryResult result =
      Run("select v, count(*) from t group by v order by v");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_TRUE(result.rows[0][0].is_null());  // NULL group sorts first
  EXPECT_EQ(result.rows[0][1].int64_value(), 1);
}

TEST_F(SqlSemanticsTest, ExceptAllRespectsMultiplicity) {
  QueryResult result = Run(
      "select k from t union all select k from t "
      "except all select k from t");
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST_F(SqlSemanticsTest, CaseWhenGuardsEvaluation) {
  // The guarded division must not run for k = 0 denominators.
  QueryResult result = Run(
      "select case when v is null then -1 else 100 / v end from t "
      "order by k");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][0].int64_value(), 10);
  EXPECT_EQ(result.rows[1][0].int64_value(), -1);
}

TEST_F(SqlSemanticsTest, EveryValueCarriesItsColumnType) {
  // A CASE mixing int64 and double branches, grouped on, and a UNION ALL
  // of an int64 and a double side: every non-NULL value is a double, in
  // the row and the columnar engine alike.
  for (bool batched : {false, true}) {
    EngineOptions options = EngineOptions::Full();
    options.exec.batched = batched;
    QueryEngine engine(&catalog_, options);
    for (const char* sql :
         {"select case when k > 2 then 1 else 2.5 end as c, count(*) from t "
          "group by case when k > 2 then 1 else 2.5 end",
          "select k from t where k < 3 union all select v * 1.5 from t",
          "select case when k > 1 then v * 0.5 end from t"}) {
      Result<QueryResult> result = engine.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      EXPECT_EQ(result->column_types[0], DataType::kDouble) << sql;
      for (const Row& row : result->rows) {
        if (row[0].is_null()) continue;
        EXPECT_EQ(row[0].type(), DataType::kDouble)
            << sql << ": " << RowToString(row);
      }
    }
  }
}

TEST_F(SqlSemanticsTest, OuterJoinPadsAndCounts) {
  QueryResult result = Run(
      "select k, count(w) from t left outer join s on w = v "
      "group by k order by k");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][1].int64_value(), 1);  // k=1 matches w=10
  EXPECT_EQ(result.rows[1][1].int64_value(), 0);  // k=2 unmatched
  EXPECT_EQ(result.rows[2][1].int64_value(), 0);  // k=3 unmatched
}

}  // namespace
}  // namespace orq
