// Join order from the enumerator, not the FROM list: runs TPC-H Q2, Q18
// and Q21 as shipped (TPC-H text verbatim) next to hand-ordered twins
// whose FROM lists already name the tables in a good join order (Q18's
// twin also applies its IN filter to orders in a derived table). With
// join enumeration both texts should compile to equally fast plans.
//
//   $ ./join_order [scale_factor] [runs]     (defaults 0.2 and 5)
//
// Prints, per query, the first run (which includes lazy statistics) and
// the best of the remaining runs, and the shipped/hand ratio of the
// latter.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

using namespace orq;

namespace {

const char* kQ2Hand =
    "select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, "
    "  s_phone, s_comment "
    "from part, partsupp, supplier, nation, region "
    "where p_partkey = ps_partkey and s_suppkey = ps_suppkey "
    "  and p_size = 15 and p_type like '%BRASS' "
    "  and s_nationkey = n_nationkey and n_regionkey = r_regionkey "
    "  and r_name = 'EUROPE' "
    "  and ps_supplycost = "
    "    (select min(ps_supplycost) "
    "     from partsupp, supplier, nation, region "
    "     where p_partkey = ps_partkey and s_suppkey = ps_suppkey "
    "       and s_nationkey = n_nationkey "
    "       and n_regionkey = r_regionkey and r_name = 'EUROPE') "
    "order by s_acctbal desc, n_name, s_name, p_partkey "
    "limit 100";

const char* kQ18Hand =
    "select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, "
    "  sum(l_quantity) as total_qty "
    "from (select o_orderkey, o_custkey, o_orderdate, o_totalprice "
    "      from orders where o_orderkey in "
    "        (select l_orderkey from lineitem "
    "         group by l_orderkey having sum(l_quantity) > 250)) as o, "
    "  customer, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice "
    "order by o_totalprice desc, o_orderdate "
    "limit 100";

const char* kQ21Hand =
    "select s_name, count(*) as numwait "
    "from nation, supplier, lineitem l1, orders "
    "where s_suppkey = l1.l_suppkey "
    "  and o_orderkey = l1.l_orderkey and o_orderstatus = 'F' "
    "  and l1.l_receiptdate > l1.l_commitdate "
    "  and exists (select * from lineitem l2 "
    "              where l2.l_orderkey = l1.l_orderkey "
    "                and l2.l_suppkey <> l1.l_suppkey) "
    "  and not exists (select * from lineitem l3 "
    "                  where l3.l_orderkey = l1.l_orderkey "
    "                    and l3.l_suppkey <> l1.l_suppkey "
    "                    and l3.l_receiptdate > l3.l_commitdate) "
    "  and s_nationkey = n_nationkey and n_name = 'SAUDI ARABIA' "
    "group by s_name "
    "order by numwait desc, s_name "
    "limit 100";

struct Timing {
  double first_ms = -1.0;
  double best_ms = -1.0;
  size_t rows = 0;
};

Timing Run(QueryEngine* engine, const std::string& sql, int runs) {
  Timing timing;
  for (int i = 0; i < runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    Result<QueryResult> result = engine->Execute(sql);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return Timing{};
    }
    timing.rows = result->rows.size();
    if (i == 0) {
      timing.first_ms = ms;
    } else if (timing.best_ms < 0 || ms < timing.best_ms) {
      timing.best_ms = ms;
    }
  }
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale_factor = argc > 1 ? std::atof(argv[1]) : 0.2;
  const int runs = argc > 2 ? std::max(2, std::atoi(argv[2])) : 5;
  Catalog catalog;
  TpchGenOptions options;
  options.scale_factor = scale_factor;
  if (Status s = GenerateTpch(&catalog, options); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  QueryEngine engine(&catalog);
  std::printf("TPC-H SF %.3f, best of %d warm runs (ms)\n", scale_factor,
              runs - 1);
  std::printf("%-5s %6s %10s %10s %10s %10s %7s\n", "query", "rows",
              "ship 1st", "ship warm", "hand 1st", "hand warm", "ratio");
  const std::pair<const char*, const char*> twins[] = {
      {"Q2", kQ2Hand}, {"Q18", kQ18Hand}, {"Q21", kQ21Hand}};
  for (const auto& [id, hand_sql] : twins) {
    Timing shipped = Run(&engine, GetTpchQuery(id).sql, runs);
    Timing hand = Run(&engine, hand_sql, runs);
    std::printf("%-5s %6zu %10.2f %10.2f %10.2f %10.2f %7.2f\n", id,
                shipped.rows, shipped.first_ms, shipped.best_ms,
                hand.first_ms, hand.best_ms, shipped.best_ms / hand.best_ms);
  }
  return 0;
}
