// Columnar (SoA) execution vs the row-at-a-time Volcano engine on
// scan/filter/aggregate/join-heavy workloads — the shapes where selection
// vectors and type-specialized kernels should pay: a Q1-style
// scan-filter-aggregate over lineitem, a pure hash group-by over orders,
// a customer-orders join feeding an aggregate, and the section-1.1
// OJ-then-agg subquery (decorrelated GroupBy over outerjoin). The
// row/columnar ratio on these is the speedup scripts/ci.sh gates.
//
// Benchmark argument: {milli-scale-factor}.
#include "bench/bench_util.h"

namespace orq {
namespace bench {
namespace {

struct Workload {
  const char* name;
  const char* sql;
  /// Join workloads pin the set-oriented (hash join) plan by keeping
  /// cost-based correlated re-introduction out — otherwise the optimizer
  /// turns them into IndexApply and the comparison measures index seeks,
  /// not the execution mode under test.
  bool pin_set_oriented;
};

constexpr Workload kWorkloads[] = {
    {"FilterAgg",
     "select l_returnflag, count(*), sum(l_extendedprice * l_discount), "
     "avg(l_quantity) from lineitem where l_quantity < 30 and "
     "l_discount > 0.02 group by l_returnflag",
     false},
    {"GroupBy",
     "select o_custkey, sum(o_totalprice), count(*) from orders "
     "group by o_custkey",
     false},
    {"JoinAgg",
     "select c_custkey, sum(o_totalprice) from customer, orders "
     "where o_custkey = c_custkey group by c_custkey",
     true},
    {"OjAgg",
     "select c_custkey from customer "
     "where 10000 < (select sum(o_totalprice) from orders "
     "               where o_custkey = c_custkey)",
     true},
};

struct Mode {
  const char* name;
  bool batched;
};

constexpr Mode kModes[] = {
    {"row", false},
    {"columnar", true},
};

void RegisterAll() {
  for (const Workload& workload : kWorkloads) {
    for (const Mode& mode : kModes) {
      std::string name =
          "Columnar_" + std::string(workload.name) + "/" + mode.name;
      EngineOptions options = EngineOptions::Full();
      options.exec.batched = mode.batched;
      if (workload.pin_set_oriented) {
        options.optimizer.correlated_reintroduction = false;
      }
      const char* sql = workload.sql;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [options, sql](benchmark::State& state) {
            Catalog* catalog = TpchAt(MilliSf(state.range(0)));
            {
              // One untimed execution first: the columnar scan transposes
              // each table into column chunks lazily on first use, and a
              // cold one-iteration run would record that one-time build
              // instead of steady-state execution.
              QueryEngine warmup(catalog, options);
              (void)warmup.Execute(sql);
            }
            RunQueryBenchmark(state, catalog, options, sql);
          })
          ->Arg(5)
          ->Arg(20)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

struct Registrar {
  Registrar() { RegisterAll(); }
} registrar;

}  // namespace
}  // namespace bench
}  // namespace orq

ORQ_BENCH_MAIN();
