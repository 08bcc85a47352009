// Morsel-driven parallel execution tests: TaskPool mechanics, parallel vs
// serial result equality on TPC-H (columnar and row mode, several thread
// counts), Exchange placement in EXPLAIN, the stats invariant under
// parallel execution, the scalar-aggregate empty-input edge across
// workers, and uncorrelated inner-spool caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/task_pool.h"
#include "obs/report.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

Catalog* SharedTpch() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    TpchGenOptions options;
    options.scale_factor = 0.002;
    Status s = GenerateTpch(c, options);
    if (!s.ok()) {
      ADD_FAILURE() << s.ToString();
    }
    return c;
  }();
  return catalog;
}

std::vector<std::string> Canonical(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    // Round doubles: merged partial sums may reassociate float additions.
    std::string line;
    for (const Value& v : row) {
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f|", v.double_value());
        line += buf;
      } else {
        line += v.ToString() + "|";
      }
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

EngineOptions ParallelOptions(int threads, int morsel_rows = 256) {
  EngineOptions options = EngineOptions::Full();
  options.exec.num_threads = threads;
  // Small morsels so even SF 0.002 tables split into many claims.
  options.exec.morsel_rows = morsel_rows;
  return options;
}

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  TaskPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_GE(pool.tasks_run(), 200);
}

TEST(TaskPoolTest, ClampsThreadCountToOne) {
  TaskPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}

TEST(TaskPoolTest, NestedSubmissionsComplete) {
  // Tasks that spawn tasks land in other workers' deques; draining them
  // exercises the stealing path regardless of scheduling.
  TaskPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &counter] {
      for (int j = 0; j < 8; ++j) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 16 * 8);
}

TEST(ParallelTpch, ResultsMatchSerialAtEveryThreadCount) {
  Catalog* catalog = SharedTpch();
  QueryEngine serial(catalog, EngineOptions::Full());
  for (const TpchQuery& query : TpchQuerySet()) {
    Result<QueryResult> expected = serial.Execute(query.sql);
    ASSERT_TRUE(expected.ok())
        << query.id << ": " << expected.status().ToString();
    std::vector<std::string> expected_rows = Canonical(*expected);
    for (int threads : {1, 4}) {
      QueryEngine parallel(catalog, ParallelOptions(threads));
      Result<QueryResult> actual = parallel.Execute(query.sql);
      ASSERT_TRUE(actual.ok()) << query.id << " threads=" << threads << ": "
                               << actual.status().ToString();
      EXPECT_EQ(Canonical(*actual), expected_rows)
          << query.id << " diverged at threads=" << threads;
    }
  }
}

TEST(ParallelTpch, RowModeMatchesColumnarMode) {
  Catalog* catalog = SharedTpch();
  QueryEngine serial(catalog, EngineOptions::Full());
  const std::vector<TpchQuery>& queries = TpchQuerySet();
  const size_t take = std::min<size_t>(queries.size(), 5);
  for (size_t i = 0; i < take; ++i) {
    const TpchQuery& query = queries[i];
    Result<QueryResult> expected = serial.Execute(query.sql);
    ASSERT_TRUE(expected.ok()) << query.id;
    EngineOptions options = ParallelOptions(4);
    options.exec.batched = false;
    QueryEngine parallel(catalog, options);
    Result<QueryResult> actual = parallel.Execute(query.sql);
    ASSERT_TRUE(actual.ok()) << query.id << ": "
                             << actual.status().ToString();
    EXPECT_EQ(Canonical(*actual), Canonical(*expected)) << query.id;
  }
}

TEST(ParallelTpch, ExplainPlacesOneExchange) {
  QueryEngine engine(SharedTpch(), ParallelOptions(4));
  Result<std::string> plan = engine.Explain(
      "select l_returnflag, count(*), sum(l_extendedprice) from lineitem "
      "group by l_returnflag");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = *plan;
  size_t first = text.find("Exchange(4)");
  EXPECT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find("Exchange", first + 1), std::string::npos)
      << "more than one exchange:\n" << text;
  EXPECT_NE(text.find("MorselScan"), std::string::npos) << text;
}

TEST(ParallelTpch, SerialModeHasNoExchange) {
  QueryEngine engine(SharedTpch(), EngineOptions::Full());
  Result<std::string> plan = engine.Explain(
      "select l_returnflag, count(*) from lineitem group by l_returnflag");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("Exchange"), std::string::npos);
}

TEST(ParallelTpch, StatsInvariantHoldsUnderParallelExecution) {
  Catalog* catalog = SharedTpch();
  const std::vector<std::string> queries = {
      "select l_returnflag, l_linestatus, sum(l_quantity), count(*) "
      "from lineitem group by l_returnflag, l_linestatus",
      "select p_brand, count(*) from lineitem, part "
      "where l_partkey = p_partkey group by p_brand",
      "select count(*) from lineitem where l_quantity < 25",
  };
  for (const std::string& sql : queries) {
    QueryEngine engine(catalog, ParallelOptions(4));
    Result<AnalyzedQuery> analyzed = engine.ExecuteAnalyzed(sql);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    // Per-operator stats (merged from the worker shards) must account for
    // exactly the rows the contexts counted — nothing lost, nothing
    // double-counted.
    EXPECT_EQ(TotalRowsOut(analyzed->plan), analyzed->result.rows_produced)
        << sql;
    EXPECT_GT(
        analyzed->metrics.counter(MetricCounter::kMorselsClaimed), 0)
        << sql;
    EXPECT_GT(analyzed->metrics.counter(MetricCounter::kExchangeBatches), 0)
        << sql;
  }
}

TEST(ParallelTpch, ScalarAggregateOverEmptyInputEmitsOneRow) {
  QueryEngine engine(SharedTpch(), ParallelOptions(4));
  Result<QueryResult> result = engine.Execute(
      "select count(*), sum(l_quantity) from lineitem where l_quantity < 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 0);
  EXPECT_TRUE(result->rows[0][1].is_null());
}

TEST(ParallelTpch, OneThreadGangStillProducesCompleteResults) {
  // threads=1 runs the whole exchange machinery with a single instance —
  // the configuration the overhead measurement uses.
  QueryEngine engine(SharedTpch(), ParallelOptions(1));
  Result<QueryResult> parallel = engine.Execute(
      "select count(*) from lineitem");
  QueryEngine serial(SharedTpch(), EngineOptions::Full());
  Result<QueryResult> expected = serial.Execute(
      "select count(*) from lineitem");
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(parallel->rows[0][0].int64_value(),
            expected->rows[0][0].int64_value());
}

TEST(InnerCacheTest, UncorrelatedInnerReplaysAcrossReopens) {
  // Under correlated-only execution, the outer subquery rebinds per orders
  // row and re-opens its inner tree each time; the nested uncorrelated
  // aggregate must be spooled once and replayed, not re-executed.
  const std::string sql =
      "select o_orderkey from orders where o_totalprice > "
      "(select sum(l_extendedprice) from lineitem "
      " where l_orderkey = o_orderkey and l_quantity < "
      "  (select avg(l_quantity) from lineitem))";
  Catalog* catalog = SharedTpch();
  QueryEngine reference(catalog, EngineOptions::Full());
  Result<QueryResult> expected = reference.Execute(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  QueryEngine correlated(catalog, EngineOptions::CorrelatedOnly());
  Result<AnalyzedQuery> analyzed = correlated.ExecuteAnalyzed(sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_EQ(Canonical(analyzed->result), Canonical(*expected));
  EXPECT_GT(analyzed->metrics.counter(MetricCounter::kInnerCacheReplays), 0);
}

}  // namespace
}  // namespace orq
