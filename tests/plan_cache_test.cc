// Plan-cache tests: miss/hit accounting, literal-parameterized sharing
// (two spellings of one template hit the same canonical entry), catalog
// version invalidation, LRU eviction, prepared statements through
// Prepare/ExecuteParams, and the hot path skipping compile phases.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "tpch/tpch_gen.h"

namespace orq {
namespace {

std::string RowsText(const QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchGenOptions options;
    options.scale_factor = 0.002;
    ASSERT_TRUE(GenerateTpch(&catalog_, options).ok());
  }

  EngineOptions CachedOptions(int capacity = 128) {
    EngineOptions options = EngineOptions::Full();
    options.plan_cache.enable = true;
    options.plan_cache.capacity = capacity;
    return options;
  }

  Catalog catalog_;
};

TEST_F(PlanCacheTest, SecondExecutionHitsAndMatches) {
  QueryEngine engine(&catalog_, CachedOptions());
  const std::string sql =
      "select c_custkey from customer where c_acctbal > 100.0 "
      "order by c_custkey";
  Result<QueryResult> cold = engine.Execute(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(engine.plan_cache_misses(), 1);
  EXPECT_EQ(engine.plan_cache_hits(), 0);
  Result<QueryResult> hot = engine.Execute(sql);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  EXPECT_EQ(engine.plan_cache_misses(), 1);
  EXPECT_EQ(engine.plan_cache_hits(), 1);
  EXPECT_EQ(cold->column_names, hot->column_names);
  EXPECT_EQ(RowsText(*cold), RowsText(*hot));
}

TEST_F(PlanCacheTest, LiteralVariantSharesCanonicalEntry) {
  QueryEngine engine(&catalog_, CachedOptions());
  // Different literals, same shape: the second spelling misses the text
  // level but hits the canonical (parameterized) level — a hit, not a
  // recompile — and still uses its own literal value.
  ASSERT_TRUE(engine
                  .Execute("select count(*) from customer "
                           "where c_custkey < 10")
                  .ok());
  Result<QueryResult> variant = engine.Execute(
      "select count(*) from customer where c_custkey < 10000000");
  ASSERT_TRUE(variant.ok()) << variant.status().ToString();
  EXPECT_EQ(engine.plan_cache_misses(), 1);
  EXPECT_EQ(engine.plan_cache_hits(), 1);
  // The substituted literal must be the new one, not the cached spelling's.
  ASSERT_EQ(variant->rows.size(), 1u);
  Result<QueryResult> all =
      engine.Execute("select count(*) from customer");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(RowsText(*variant), RowsText(*all));
}

TEST_F(PlanCacheTest, AliasDifferencesDoNotShareEntries) {
  QueryEngine engine(&catalog_, CachedOptions());
  Result<QueryResult> a =
      engine.Execute("select c_custkey as k from customer where c_custkey < 5");
  Result<QueryResult> b =
      engine.Execute("select c_custkey as j from customer where c_custkey < 5");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Same template modulo the output alias: the canonical form includes the
  // output signature, so these must not serve each other's entry.
  EXPECT_EQ(engine.plan_cache_hits(), 0);
  EXPECT_EQ(engine.plan_cache_misses(), 2);
  EXPECT_EQ(a->column_names, std::vector<std::string>{"k"});
  EXPECT_EQ(b->column_names, std::vector<std::string>{"j"});
}

TEST_F(PlanCacheTest, InvalidateStatsEvictsCachedPlans) {
  QueryEngine engine(&catalog_, CachedOptions());
  const std::string sql = "select count(*) from orders where o_custkey = 7";
  ASSERT_TRUE(engine.Execute(sql).ok());
  const int64_t before = catalog_.version();
  catalog_.InvalidateStats();
  EXPECT_GT(catalog_.version(), before);
  // The cached entry carries the old version: the lookup must discard it
  // and recompile, never serve a plan built against stale stats.
  ASSERT_TRUE(engine.Execute(sql).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 0);
  EXPECT_EQ(engine.plan_cache_misses(), 2);
  EXPECT_GE(engine.plan_cache_evictions(), 1);
  // Re-cached under the new version: next execution hits again.
  ASSERT_TRUE(engine.Execute(sql).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 1);
}

TEST_F(PlanCacheTest, CreateTableBumpsCatalogVersion) {
  const int64_t before = catalog_.version();
  Result<Table*> table = catalog_.CreateTable(
      "plan_cache_probe", {{"x", DataType::kInt64}});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_GT(catalog_.version(), before);
}

TEST_F(PlanCacheTest, LruEvictsLeastRecentlyUsedEntry) {
  QueryEngine engine(&catalog_, CachedOptions(/*capacity=*/2));
  const std::string a = "select count(*) from customer";
  const std::string b = "select count(*) from orders";
  const std::string c = "select count(*) from nation";
  ASSERT_TRUE(engine.Execute(a).ok());
  ASSERT_TRUE(engine.Execute(b).ok());
  ASSERT_TRUE(engine.Execute(c).ok());  // evicts `a`, the LRU entry
  EXPECT_GE(engine.plan_cache_evictions(), 1);
  ASSERT_TRUE(engine.Execute(a).ok());  // recompiled
  EXPECT_EQ(engine.plan_cache_misses(), 4);
  ASSERT_TRUE(engine.Execute(c).ok());  // survived: most recent before `a`
  EXPECT_EQ(engine.plan_cache_hits(), 1);
}

TEST_F(PlanCacheTest, DisabledCacheCountsNothing) {
  QueryEngine engine(&catalog_);  // default options: cache off
  const std::string sql = "select count(*) from customer";
  ASSERT_TRUE(engine.Execute(sql).ok());
  ASSERT_TRUE(engine.Execute(sql).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 0);
  EXPECT_EQ(engine.plan_cache_misses(), 0);
}

TEST_F(PlanCacheTest, PrepareInfersParamTypesAndExecuteParamsRuns) {
  QueryEngine engine(&catalog_, CachedOptions());
  Result<QueryEngine::PreparedInfo> info = engine.Prepare(
      "select c_name from customer where c_custkey = ? order by c_name");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->param_types.size(), 1u);
  EXPECT_EQ(info->param_types[0], DataType::kInt64);
  EXPECT_EQ(info->output_names, std::vector<std::string>{"c_name"});

  Result<QueryResult> via_params = engine.ExecuteParams(
      "select c_name from customer where c_custkey = ? order by c_name",
      {Value::Int64(3)});
  ASSERT_TRUE(via_params.ok()) << via_params.status().ToString();
  // PREPARE warmed the cache, so the EXECUTE lane must have hit.
  EXPECT_GE(engine.plan_cache_hits(), 1);

  QueryEngine literal_engine(&catalog_);
  Result<QueryResult> via_literal = literal_engine.Execute(
      "select c_name from customer where c_custkey = 3 order by c_name");
  ASSERT_TRUE(via_literal.ok());
  EXPECT_EQ(RowsText(*via_params), RowsText(*via_literal));
}

TEST_F(PlanCacheTest, ExecuteParamsCoercesStringToDate) {
  QueryEngine engine(&catalog_, CachedOptions());
  const std::string sql =
      "select count(*) from orders where o_orderdate < ?";
  Result<QueryResult> via_params =
      engine.ExecuteParams(sql, {Value::String("1995-06-01")});
  ASSERT_TRUE(via_params.ok()) << via_params.status().ToString();
  QueryEngine literal_engine(&catalog_);
  Result<QueryResult> via_literal = literal_engine.Execute(
      "select count(*) from orders where o_orderdate < date '1995-06-01'");
  ASSERT_TRUE(via_literal.ok()) << via_literal.status().ToString();
  EXPECT_EQ(RowsText(*via_params), RowsText(*via_literal));
}

// One arity rule on both lanes: every misuse is InvalidArgument, with the
// same message whether the plan cache is on or off.
TEST_F(PlanCacheTest, ParameterCountAndTypeErrors) {
  const std::string sql =
      "select c_name from customer where c_custkey = ?";
  std::vector<std::string> messages[2];
  for (bool cache : {true, false}) {
    SCOPED_TRACE(cache ? "plan cache on" : "plan cache off");
    EngineOptions options = EngineOptions::Full();
    options.plan_cache.enable = cache;
    QueryEngine engine(&catalog_, options);
    std::vector<Status> misuses = {
        // Plain Execute and ExecuteAnalyzed cannot run a statement with
        // parameter markers; neither can ExecuteParams without values.
        engine.Execute(sql).status(),
        engine.ExecuteAnalyzed(sql).status(),
        engine.ExecuteParams(sql, {}).status(),
        // Wrong arity, both ways.
        engine.ExecuteParams(sql, {Value::Int64(1), Value::Int64(2)})
            .status(),
        engine.ExecuteParams("select c_name from customer", {Value::Int64(1)})
            .status(),
        // Un-coercible type: a string where an int64 comparison was
        // inferred.
        engine.ExecuteParams(sql, {Value::String("not-a-number")}).status(),
    };
    // Missing values read the same whichever entry point ran.
    EXPECT_EQ(misuses[0].message(), misuses[1].message());
    EXPECT_EQ(misuses[0].message(), misuses[2].message());
    for (const Status& status : misuses) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << status.ToString();
      messages[cache ? 0 : 1].push_back(status.message());
    }
  }
  EXPECT_EQ(messages[0], messages[1]);
}

// A prepared statement's observed fingerprint is taken before its values
// are bound, so every EXECUTE of it aggregates under one fingerprint in
// `\history` whether or not the plan cache is on. Without the cache,
// literal variants of unprepared SQL stay distinct.
TEST_F(PlanCacheTest, PreparedStatementKeepsOneFingerprint) {
  const std::string sql =
      "select c_name from customer where c_custkey = ? order by c_name";
  auto fingerprint = [](QueryEngine* engine, const std::string& text,
                        const std::vector<Value>& params) {
    QueryObservation observe;
    ExecControl control;
    control.observe = &observe;
    Result<QueryResult> result = engine->ExecuteParams(text, params, control);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(observe.fingerprint.size(), 16u);
    return observe.fingerprint;
  };
  for (bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "plan cache on" : "plan cache off");
    EngineOptions options = EngineOptions::Full();
    options.plan_cache.enable = cache;
    QueryEngine engine(&catalog_, options);
    EXPECT_EQ(fingerprint(&engine, sql, {Value::Int64(3)}),
              fingerprint(&engine, sql, {Value::Int64(7)}));
  }
  QueryEngine engine(&catalog_);
  EXPECT_NE(fingerprint(&engine,
                        "select c_name from customer where c_custkey = 3", {}),
            fingerprint(&engine,
                        "select c_name from customer where c_custkey = 7", {}));
}

TEST_F(PlanCacheTest, HotPathSkipsCompilePhases) {
  QueryEngine engine(&catalog_, CachedOptions());
  const std::string sql =
      "select c_custkey from customer "
      "where 1000 < (select sum(o_totalprice) from orders "
      "              where o_custkey = c_custkey)";
  Result<AnalyzedQuery> cold = engine.ExecuteAnalyzed(sql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->profile.cache, CacheOutcome::kMiss);
  Result<AnalyzedQuery> hot = engine.ExecuteAnalyzed(sql);
  ASSERT_TRUE(hot.ok()) << hot.status().ToString();
  EXPECT_EQ(hot->profile.cache, CacheOutcome::kHit);
  EXPECT_EQ(RowsText(cold->result), RowsText(hot->result));

  auto compile_nanos = [](const QueryProfile& profile) {
    int64_t total = 0;
    for (QueryPhase phase :
         {QueryPhase::kParse, QueryPhase::kBind, QueryPhase::kApplyIntro,
          QueryPhase::kNormalize, QueryPhase::kOptimize}) {
      total += profile.phase(phase).wall_nanos;
    }
    return total;
  };
  const int64_t cold_compile = compile_nanos(cold->profile);
  const int64_t hot_compile = compile_nanos(hot->profile);
  EXPECT_GT(cold_compile, 0);
  // The hot path serves the optimized template straight from the cache:
  // parse through optimize never run, so their timers stay at zero.
  EXPECT_EQ(hot_compile, 0);
}

TEST_F(PlanCacheTest, CanonicalizeDistinguishesLiteralTypes) {
  // 1 (int64) and 1.0 (double) parameterize to different template types,
  // so the canonical forms must differ — serving one for the other would
  // change arithmetic semantics.
  QueryEngine engine(&catalog_, CachedOptions());
  ASSERT_TRUE(
      engine.Execute("select c_custkey + 1 from customer where c_custkey = 1")
          .ok());
  ASSERT_TRUE(engine
                  .Execute("select c_custkey + 1.0 from customer "
                           "where c_custkey = 1")
                  .ok());
  EXPECT_EQ(engine.plan_cache_hits(), 0);
  EXPECT_EQ(engine.plan_cache_misses(), 2);
}

}  // namespace
}  // namespace orq
