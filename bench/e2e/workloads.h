#ifndef ORQ_BENCH_E2E_WORKLOADS_H_
#define ORQ_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/engine.h"

namespace orq::bench {

enum class CatalogKind { kTpch, kDifftest };

/// One benchmark workload. Its catalog and queries are fixed, the same for
/// every seed; the seed draws only the request stream (visit orders,
/// arrival times, the order of the open-loop mix).
struct Workload {
  const char* name;
  CatalogKind catalog;
  /// Open loop: seeded Poisson arrivals at `rate_qps`, each sent on the
  /// next free connection. Closed loop: each connection sends its next
  /// query when the previous reply arrived.
  bool open_loop;
  double rate_qps;
  int connections;
  /// Generated workloads: only the frozen pool's repeated subset (its
  /// `repeated` column), not the whole pool.
  bool repeated;
  /// `SET plan_cache on` for every session, plus a catalog snapshot swap
  /// (QueryServer::ReplaceCatalog) every kSwapIntervalNanos.
  bool plan_cache;
};

const std::vector<Workload>& Workloads();
/// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// A query with its reference answer: the row count and an
/// order-insensitive hash of the canonical rows.
struct BenchQuery {
  std::string id;  // "Q17" for TPC-H, "g<n>" for pool queries
  std::string sql;
  uint64_t hash = 0;
  int64_t rows = 0;
  /// open_mixed: true for the long queries (10% of arrivals).
  bool long_query = false;
};

/// Wall seconds of the two set-up steps that touch the catalog.
struct CatalogTiming {
  double generate_s = 0.0;
  double stats_s = 0.0;
};

/// Generates the workload's (fixed) catalog and computes every table's
/// statistics, so no query pays for them lazily.
Result<std::shared_ptr<Catalog>> BuildCatalog(CatalogKind kind,
                                              CatalogTiming* timing);

/// The workload's distinct queries with their reference answers. TPC-H
/// answers are computed on `catalog` by row mode without the GroupBy
/// techniques. Generated workloads read the frozen pool at `pool_path`
/// (see FreezePool): its queries and answers were fixed when the pool was
/// frozen, so nothing the measured build does can change which queries a
/// run sends. `limit`, when positive, keeps only the first `limit` queries.
Result<std::vector<BenchQuery>> PrepareQueries(const Workload& workload,
                                               Catalog* catalog,
                                               const std::string& pool_path,
                                               int limit);

/// Writes the generated workloads' pool to `path`: the first 1000
/// distinct queries of the difftest QueryGenerator that the naive
/// reference answers within its deadline and that stay under a work cap in
/// the server's configuration, each with the reference's row count and
/// hash, and the 32 queries in the middle of the pool's cost order marked
/// as the repeated subset. Run once, by hand; the file is checked in.
Status FreezePool(const std::string& path);

/// `count` generated candidates drawn from QueryGenerator(`seed`), keeping
/// those the naive reference answers within its deadline, with the
/// reference's answers: the held-out correctness check of `--check-only`.
/// A candidate on which the server's configuration reports a cardinality
/// violation is dropped, as the difftest oracle tolerates it: evaluation
/// order decides whether a Max1Row guard sees a second row.
Result<std::vector<BenchQuery>> SeededPool(Catalog* catalog, uint64_t seed,
                                           int count);

/// Order-insensitive hash of a bag of canonical row strings (the wire's
/// row form): the sum of a mixed FNV-1a hash per row.
uint64_t BagHash(const std::vector<std::string>& canonical_rows);

/// splitmix64 step: the seeded generator for visit orders and arrivals.
uint64_t SplitMix64(uint64_t* state);

}  // namespace orq::bench

#endif  // ORQ_BENCH_E2E_WORKLOADS_H_
