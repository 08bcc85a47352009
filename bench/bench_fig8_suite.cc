// Figure 8 reproduction: the paper reprints all published 300 GB TPC-H
// results (vendor systems, QphH, price/performance). We cannot re-run
// 2000-era vendor systems; the preserved comparison is *query-processor
// technology*: the same TPC-H "power run" subset executed under four
// optimizer configurations of this engine, which play the role of the
// competing systems. Rows of the table: configuration x query, elapsed
// time. The paper's claim maps to: `full` dominates, and the margin on the
// subquery-heavy queries (Q2, Q17) is an order of magnitude or more.
//
// Fig8Anti pairs two correlated quantified subqueries (NOT IN, and `<> ALL`
// with a filter) with their NOT EXISTS twins under the full optimizer. The
// columns are NOT NULL, so each pair returns the same count; the
// quantified form is tagged /quantified/, its twin /not_exists/, and
// scripts/ci.sh gates each form to run within 2x of its twin.
//
// Benchmark argument: {milli-scale-factor}.
#include "bench/bench_util.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace bench {
namespace {

/// Queries whose naive correlated form re-executes a large *uncorrelated*
/// aggregation per outer row (no index can help); at bench scale they run
/// for hours under `correlated_only` — reported as DNF, exactly like
/// missing results in the paper's table.
bool CorrelatedFeasible(const std::string& id) {
  return id != "Q18" && id != "Q15";
}

void BM_TpchQuery(benchmark::State& state, const std::string& config_name,
                  const EngineOptions& options, const std::string& query_id) {
  Catalog* catalog = TpchAt(MilliSf(state.range(0)));
  if (config_name == "correlated_only" && !CorrelatedFeasible(query_id)) {
    state.SkipWithError("DNF: naive correlated re-aggregation (see notes)");
    return;
  }
  RunQueryBenchmark(state, catalog, options, GetTpchQuery(query_id).sql);
}

/// A correlated quantified subquery and its NOT EXISTS twin.
struct AntiPair {
  const char* name;
  const char* quantified;
  const char* not_exists;
};

constexpr AntiPair kAntiPairs[] = {
    {"NotIn",
     "select count(*) from lineitem where l_suppkey not in "
     "(select ps_suppkey from partsupp where ps_partkey = l_partkey)",
     "select count(*) from lineitem where not exists "
     "(select * from partsupp where ps_partkey = l_partkey "
     "and ps_suppkey = l_suppkey)"},
    {"NeAllAvailqty",
     "select count(*) from lineitem where l_suppkey <> all "
     "(select ps_suppkey from partsupp where ps_partkey = l_partkey "
     "and ps_availqty > 5000)",
     "select count(*) from lineitem where not exists "
     "(select * from partsupp where ps_partkey = l_partkey "
     "and ps_availqty > 5000 and ps_suppkey = l_suppkey)"},
};

void RegisterAntiPairs() {
  for (const AntiPair& pair : kAntiPairs) {
    for (const auto& [tag, sql] :
         {std::make_pair("quantified", pair.quantified),
          std::make_pair("not_exists", pair.not_exists)}) {
      std::string name = "Fig8Anti/" + std::string(pair.name) + "/" + tag;
      std::string query = sql;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [query](benchmark::State& state) {
            RunQueryBenchmark(state, TpchAt(MilliSf(state.range(0))),
                              EngineOptions::Full(), query);
          })
          ->Args({5})  // SF 0.005
          ->Unit(benchmark::kMillisecond);
    }
  }
}

void RegisterAll() {
  for (const NamedConfig& config : Configurations()) {
    for (const TpchQuery& query : TpchQuerySet()) {
      std::string name =
          "Fig8/" + query.id + "/" + std::string(config.name);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [config, query](benchmark::State& state) {
            BM_TpchQuery(state, config.name, config.options, query.id);
          })
          ->Args({5})  // SF 0.005
          ->Unit(benchmark::kMillisecond);
    }
  }
}

struct Registrar {
  Registrar() {
    RegisterAll();
    RegisterAntiPairs();
  }
} registrar;

}  // namespace
}  // namespace bench
}  // namespace orq

ORQ_BENCH_MAIN();
