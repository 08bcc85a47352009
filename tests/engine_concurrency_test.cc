// Engine re-entrancy tests: one QueryEngine shared by many threads must
// produce exactly the serial results, with and without a concurrent
// set_options churn thread. This file is part of the TSan suite (see
// scripts/ci.sh) — the interesting assertions are the ones the sanitizer
// makes about the engine's options/pool/catalog-stats synchronization.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "difftest/dataset.h"
#include "difftest/oracle.h"
#include "engine/engine.h"

namespace orq {
namespace {

Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    Status s = BuildDifftestCatalog(c, 20260807);
    if (!s.ok()) ADD_FAILURE() << s.ToString();
    return c;
  }();
  return catalog;
}

// A small mix touching the subsystems with shared state: correlated
// subqueries (Apply), hash join + aggregation, sort, EXISTS, and lazily
// computed catalog statistics.
const char* kQueryMix[] = {
    "SELECT c_custkey, (SELECT COUNT(*) FROM orders o "
    "WHERE o.o_custkey = c.c_custkey) FROM customer c",
    "SELECT n_name, COUNT(*) FROM nation, customer "
    "WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY n_name",
    "SELECT o_orderkey FROM orders o WHERE EXISTS "
    "(SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey "
    " AND l.l_quantity > 10)",
    "SELECT COUNT(*) FROM lineitem WHERE l_extendedprice > "
    "(SELECT 0.5 * MAX(l2.l_extendedprice) FROM lineitem l2)",
    "SELECT p_brand, SUM(p_retailprice) FROM part GROUP BY p_brand",
};
constexpr int kNumQueries = 5;

std::vector<std::vector<std::string>> SerialBags() {
  QueryEngine engine(SharedCatalog());
  std::vector<std::vector<std::string>> bags;
  for (const char* sql : kQueryMix) {
    Result<QueryResult> result = engine.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    bags.push_back(result.ok() ? CanonicalBag(*result)
                               : std::vector<std::string>());
  }
  return bags;
}

// Two inputs: plain Execute with the plan cache off, and the plan cache
// on with alternate threads running an observed Execute and
// ExecuteAnalyzed, so cache hits share one CachedPlan while the lifecycle
// runs under both observation sinks.
TEST(EngineConcurrencyTest, ConcurrentExecuteMatchesSerial) {
  const std::vector<std::vector<std::string>> expected = SerialBags();
  for (bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "plan cache on" : "plan cache off");
    EngineOptions options = EngineOptions::Full();
    options.plan_cache.enable = cache;
    QueryEngine engine(SharedCatalog(), options);
    constexpr int kThreads = 8;
    constexpr int kRounds = 6;
    std::atomic<int> divergences{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          const int qi = (t + round) % kNumQueries;
          Result<QueryResult> result = Status::Internal("not run");
          if (!cache) {
            result = engine.Execute(kQueryMix[qi]);
          } else if (t % 2 == 0) {
            QueryObservation observe;
            ExecControl control;
            control.observe = &observe;
            result = engine.Execute(kQueryMix[qi], control);
          } else {
            Result<AnalyzedQuery> analyzed =
                engine.ExecuteAnalyzed(kQueryMix[qi]);
            if (analyzed.ok()) {
              result = std::move(analyzed->result);
            } else {
              result = analyzed.status();
            }
          }
          if (!result.ok() || CanonicalBag(*result) != expected[qi]) {
            divergences.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(divergences.load(), 0);
    if (cache) {
      EXPECT_GT(engine.plan_cache_hits(), 0);
    }
  }
}

TEST(EngineConcurrencyTest, ExecuteUnderOptionsChurnMatchesSerial) {
  // A churn thread flips execution mode and thread count while queries
  // run. Every configuration computes the same results, so any divergence
  // means a query observed a half-applied configuration (or the pool swap
  // raced) — precisely the bug snapshot-at-entry must prevent.
  const std::vector<std::vector<std::string>> expected = SerialBags();
  QueryEngine engine(SharedCatalog());
  std::atomic<bool> stop{false};
  std::thread churn([&engine, &stop] {
    int flip = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EngineOptions options = EngineOptions::Full();
      options.exec.batched = (flip % 2 == 0);
      options.exec.num_threads = (flip % 3 == 0) ? 2 : 0;
      options.exec.morsel_rows = 8;
      engine.set_options(options);
      ++flip;
      std::this_thread::yield();
    }
  });
  constexpr int kThreads = 6;
  constexpr int kRounds = 8;
  std::atomic<int> divergences{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const int qi = (t * kRounds + round) % kNumQueries;
        Result<QueryResult> result = engine.Execute(kQueryMix[qi]);
        if (!result.ok() || CanonicalBag(*result) != expected[qi]) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  churn.join();
  EXPECT_EQ(divergences.load(), 0);
}

TEST(EngineConcurrencyTest, ConcurrentParallelQueriesShareThePool) {
  // Several threads run morsel-parallel queries on one engine at once;
  // they share (and lazily build) the engine's TaskPool.
  const std::vector<std::vector<std::string>> expected = SerialBags();
  EngineOptions options = EngineOptions::Full();
  options.exec.num_threads = 2;
  options.exec.morsel_rows = 8;
  QueryEngine engine(SharedCatalog(), options);
  constexpr int kThreads = 4;
  std::atomic<int> divergences{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int qi = 0; qi < kNumQueries; ++qi) {
        Result<QueryResult> result = engine.Execute(kQueryMix[qi]);
        if (!result.ok() || CanonicalBag(*result) != expected[qi]) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(divergences.load(), 0);
}

TEST(EngineConcurrencyTest, ConcurrentExplainAndExecute) {
  // Explain reads the catalog's lazily cached statistics while Execute
  // runs — the stats cache is the one shared mutable catalog structure.
  QueryEngine engine(SharedCatalog());
  std::atomic<int> failures{0};
  std::thread explainer([&] {
    for (int i = 0; i < 10; ++i) {
      Result<std::string> plan = engine.Explain(kQueryMix[i % kNumQueries]);
      if (!plan.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread executor([&] {
    for (int i = 0; i < 10; ++i) {
      Result<QueryResult> result =
          engine.Execute(kQueryMix[(i + 2) % kNumQueries]);
      if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  explainer.join();
  executor.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace orq
