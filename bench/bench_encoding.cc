// Encoded columnar storage vs plain columnar chunks on dict/RLE-friendly
// aggregate workloads — the shapes where encoding-aware kernels should
// pay: a Q1-style group-by over lineitem's two low-cardinality flag
// columns (dict codes feed grouping and the vectorized accumulators walk
// group-constant ranges), a dict-translated filter predicate, a brand
// roll-up over part, and a flag-filtered sum. Both modes run the columnar
// engine over catalogs generated alike; only the load-time chunk encoding
// differs, so the "/encoded/" vs "/plain/" ratio isolates the storage
// layer. That ratio is the speedup scripts/ci.sh gates at 1.2x on at
// least one workload.
//
// Benchmark argument: {milli-scale-factor}.
#include "bench/bench_util.h"

namespace orq {
namespace bench {
namespace {

struct Workload {
  const char* name;
  const char* sql;
};

constexpr Workload kWorkloads[] = {
    {"FlagGroupBy",
     "select l_returnflag, l_linestatus, count(*), sum(l_quantity), "
     "sum(l_extendedprice), max(l_discount) from lineitem "
     "group by l_returnflag, l_linestatus"},
    {"DictFilterCount",
     "select count(*), sum(l_extendedprice) from lineitem "
     "where l_returnflag = 'R'"},
    {"BrandRollup",
     "select p_brand, count(*), min(p_retailprice), max(p_retailprice) "
     "from part group by p_brand"},
    {"FlagFilteredSum",
     "select l_linestatus, sum(l_quantity), count(l_discount) "
     "from lineitem where l_returnflag <> 'A' group by l_linestatus"},
};

struct Mode {
  const char* name;
  TableEncoding encoding;
};

constexpr Mode kModes[] = {
    {"plain", TableEncoding::kPlain},
    {"encoded", TableEncoding::kAuto},
};

void RegisterAll() {
  for (const Workload& workload : kWorkloads) {
    for (const Mode& mode : kModes) {
      std::string name =
          "Encoding_" + std::string(workload.name) + "/" + mode.name;
      const TableEncoding encoding = mode.encoding;
      const char* sql = workload.sql;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [encoding, sql](benchmark::State& state) {
            Catalog* catalog = TpchAt(MilliSf(state.range(0)), encoding);
            const EngineOptions options = EngineOptions::Full();
            {
              // One untimed execution first, so a one-iteration smoke run
              // records steady-state execution rather than cold caches.
              QueryEngine warmup(catalog, options);
              (void)warmup.Execute(sql);
            }
            RunQueryBenchmark(state, catalog, options, sql);
          })
          ->Arg(5)
          ->Arg(20)
          ->Arg(100)
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
