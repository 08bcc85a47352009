#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

#include "difftest/dataset.h"
#include "difftest/oracle.h"
#include "difftest/qgen.h"
#include "obs/stats.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq::bench {

namespace {

/// SF 0.005 keeps a Figure 8 pass near a quarter second, so a window
/// holds well over a thousand samples while execute still dominates.
constexpr double kTpchScaleFactor = 0.005;

/// The catalogs and the frozen pool do not depend on the run's seed.
/// Drawn from it, they moved a workload's cost by 10-25% from one seed to
/// the next, measured with the seeds interleaved in time (the generated
/// pool's p99 by a quarter, even with 1000 queries), which is more than a
/// regression bound could resolve.
constexpr uint64_t kTpchDataSeed = 19940101;  // TpchGenOptions' default
/// The difftest catalog's and query generator's seed, as difftest_smoke
/// uses it.
constexpr uint64_t kDifftestSeed = 20260806;

/// Generated queries whose naive reference takes longer than this are
/// left out: the reference runs per-row nested loops and a handful of
/// generated shapes take it seconds.
constexpr int64_t kReferenceTimeoutMs = 1000;

/// Generated queries producing more rows than this in the server's
/// configuration (about the 97th percentile) stay out of the pool: the few
/// heavy ones would otherwise decide the workload's p99 and memory peak,
/// and these workloads are about compile and per-request cost.
constexpr int64_t kMaxWork = 1000;

/// The frozen pool's size and its repeated subset's.
constexpr size_t kPoolSize = 1000;
constexpr size_t kRepeated = 32;

/// The paper's Figure 8 query set.
const char* const kFig8Ids[] = {"Q1",  "Q2",  "Q4",  "Q15", "Q16",
                                "Q17", "Q18", "Q20", "Q21", "Q22"};
/// open_mixed: short (1-6 ms) and long (37-63 ms) TPC-H queries.
const char* const kShortIds[] = {"Q2", "Q4", "Q17", "Q22"};
const char* const kLongIds[] = {"Q1", "Q18", "Q20", "Q21"};

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<std::string> CanonicalRows(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) rows.push_back(CanonicalRow(row));
  return rows;
}

/// Runs `fn(i)` for i in [0, n) on up to four threads. Preparation only:
/// it happens before any set-up or window is timed.
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t threads = std::min<size_t>(
      n, std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4));
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

Result<std::vector<BenchQuery>> PrepareTpch(const Workload& workload,
                                            Catalog* catalog) {
  std::vector<BenchQuery> queries;
  auto add = [&](const char* id, bool long_query) {
    BenchQuery query;
    query.id = id;
    query.sql = GetTpchQuery(id).sql;
    query.long_query = long_query;
    queries.push_back(std::move(query));
  };
  if (workload.open_loop) {
    for (const char* id : kShortIds) add(id, false);
    for (const char* id : kLongIds) add(id, true);
  } else {
    for (const char* id : kFig8Ids) add(id, false);
  }

  // Row mode without the GroupBy techniques: the plan the paper's
  // optimizations are measured against, and one that finishes on every
  // Figure 8 query (correlated-only execution does not finish Q15/Q18).
  EngineOptions reference = EngineOptions::NoGroupByOptimizations();
  reference.exec.batched = false;
  QueryEngine engine(catalog, reference);
  std::vector<Status> errors(queries.size());
  ParallelFor(queries.size(), [&](size_t i) {
    Result<QueryResult> result = engine.Execute(queries[i].sql);
    if (!result.ok()) {
      errors[i] = result.status();
      return;
    }
    queries[i].hash = BagHash(CanonicalRows(*result));
    queries[i].rows = static_cast<int64_t>(result->rows.size());
  });
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!errors[i].ok()) {
      return Status::Internal("reference failed on " + queries[i].id + ": " +
                              errors[i].ToString());
    }
  }
  return queries;
}

/// One generated candidate run on the naive reference and on the server's
/// configuration.
struct Candidate {
  BenchQuery query;       // with the reference's answer when `answered`
  bool answered = false;  // the reference finished within its deadline
  Status served;          // the server configuration's outcome
  int64_t work = 0;       // the server configuration's rows_produced
};

/// The next `count` distinct queries of `generator`, each run on both
/// configurations on up to four threads.
std::vector<Candidate> NextCandidates(Catalog* catalog,
                                      QueryGenerator* generator,
                                      std::set<std::string>* seen, int count) {
  std::vector<Candidate> batch;
  while (static_cast<int>(batch.size()) < count) {
    std::string sql = RenderSql(generator->Generate());
    if (seen->insert(sql).second) {
      batch.emplace_back();
      batch.back().query.sql = std::move(sql);
    }
  }
  QueryEngine reference(catalog, NaiveReferenceOptions());
  QueryEngine server_side(catalog, EngineOptions());
  ParallelFor(batch.size(), [&](size_t i) {
    Candidate& candidate = batch[i];
    CancelToken deadline;
    deadline.SetTimeoutMs(kReferenceTimeoutMs);
    ExecControl control;
    control.cancel = &deadline;
    Result<QueryResult> expected =
        reference.Execute(candidate.query.sql, control);
    if (!expected.ok()) return;
    const std::vector<std::string> rows = CanonicalRows(*expected);
    candidate.query.hash = BagHash(rows);
    candidate.query.rows = static_cast<int64_t>(rows.size());
    candidate.answered = true;
    Result<QueryResult> served = server_side.Execute(candidate.query.sql);
    candidate.served = served.status();
    if (served.ok()) candidate.work = served->rows_produced;
  });
  return batch;
}

bool CardinalityViolation(const Status& status) {
  return status.code() == StatusCode::kCardinalityViolation;
}

std::string Hex(uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(value));
  return text;
}

/// Reads the frozen pool: `#` comment lines, then one query a line as
/// id, repeated (0/1), rows, hash (hex) and SQL, tab-separated.
Result<std::vector<BenchQuery>> ReadPool(const std::string& path,
                                         bool repeated_only) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open the query pool " + path);
  std::vector<BenchQuery> pool;
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    size_t from = 0;
    for (int f = 0; f < 4; ++f) {
      const size_t tab = line.find('\t', from);
      if (tab == std::string::npos) break;
      fields.push_back(line.substr(from, tab - from));
      from = tab + 1;
    }
    if (fields.size() != 4 || from == line.size()) {
      return Status::InvalidArgument(path + ":" + std::to_string(number) +
                                     ": expected 5 tab-separated fields");
    }
    if (repeated_only && fields[1] != "1") continue;
    BenchQuery query;
    query.id = fields[0];
    query.rows = std::strtoll(fields[2].c_str(), nullptr, 10);
    query.hash = std::strtoull(fields[3].c_str(), nullptr, 16);
    query.sql = line.substr(from);
    pool.push_back(std::move(query));
  }
  if (pool.empty()) return Status::InvalidArgument(path + ": no queries");
  return pool;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"tpch_fig8", CatalogKind::kTpch, false, 0.0, 2, false, false},
      {"subquery_mix", CatalogKind::kDifftest, false, 0.0, 2, false, false},
      {"subquery_cached", CatalogKind::kDifftest, false, 0.0, 2, true, true},
      {"open_mixed", CatalogKind::kTpch, true, 100.0, 4, false, false},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

Result<std::shared_ptr<Catalog>> BuildCatalog(CatalogKind kind,
                                              CatalogTiming* timing) {
  auto catalog = std::make_shared<Catalog>();
  const int64_t start = ObsNowNanos();
  if (kind == CatalogKind::kTpch) {
    TpchGenOptions options;
    options.scale_factor = kTpchScaleFactor;
    options.seed = kTpchDataSeed;
    ORQ_RETURN_IF_ERROR(GenerateTpch(catalog.get(), options));
  } else {
    ORQ_RETURN_IF_ERROR(BuildDifftestCatalog(catalog.get(), kDifftestSeed));
  }
  const int64_t generated = ObsNowNanos();
  for (const std::string& name : catalog->TableNames()) {
    catalog->GetStats(*catalog->FindTable(name));
  }
  timing->generate_s = static_cast<double>(generated - start) / 1e9;
  timing->stats_s = static_cast<double>(ObsNowNanos() - generated) / 1e9;
  return catalog;
}

Result<std::vector<BenchQuery>> PrepareQueries(const Workload& workload,
                                               Catalog* catalog,
                                               const std::string& pool_path,
                                               int limit) {
  std::vector<BenchQuery> queries;
  if (workload.catalog == CatalogKind::kTpch) {
    ORQ_ASSIGN_OR_RETURN(queries, PrepareTpch(workload, catalog));
  } else {
    ORQ_ASSIGN_OR_RETURN(queries, ReadPool(pool_path, workload.repeated));
  }
  if (limit > 0 && static_cast<size_t>(limit) < queries.size()) {
    queries.resize(static_cast<size_t>(limit));
  }
  return queries;
}

Status FreezePool(const std::string& path) {
  Catalog catalog;
  ORQ_RETURN_IF_ERROR(BuildDifftestCatalog(&catalog, kDifftestSeed));
  QueryGenerator generator(kDifftestSeed);
  std::set<std::string> seen;
  std::vector<Candidate> pool;
  while (pool.size() < kPoolSize) {
    if (seen.size() > 20 * kPoolSize) {
      return Status::Internal("the generator yielded only " +
                              std::to_string(pool.size()) +
                              " usable queries");
    }
    const int want = static_cast<int>(kPoolSize - pool.size()) * 5 / 4 + 8;
    for (Candidate& candidate :
         NextCandidates(&catalog, &generator, &seen, want)) {
      if (!candidate.answered || CardinalityViolation(candidate.served)) {
        continue;
      }
      if (!candidate.served.ok()) {
        return Status::Internal("the server configuration fails where the "
                                "reference answers: " +
                                candidate.served.ToString() + "\n" +
                                candidate.query.sql);
      }
      if (candidate.query.sql.find_first_of("\t\n") != std::string::npos) {
        return Status::Internal("generated SQL holds a tab or newline");
      }
      if (candidate.work <= kMaxWork && pool.size() < kPoolSize) {
        pool.push_back(std::move(candidate));
      }
    }
  }

  // The repeated subset: the queries in the middle of the pool's cost
  // order, a small set whose cost mix is typical of the pool, which a set
  // drawn at random (or spread over the whole order, heavy tail included)
  // does not give.
  std::vector<size_t> by_work(pool.size());
  for (size_t i = 0; i < by_work.size(); ++i) by_work[i] = i;
  std::stable_sort(by_work.begin(), by_work.end(), [&](size_t a, size_t b) {
    return pool[a].work < pool[b].work;
  });
  std::vector<char> repeated(pool.size(), 0);
  const size_t first = (pool.size() - kRepeated) / 2;
  for (size_t k = first; k < first + kRepeated; ++k) repeated[by_work[k]] = 1;

  std::ofstream out(path);
  out << "# The generated workloads' query pool, frozen: bench/e2e/README.md\n"
         "# explains it. Written by `orq_bench --freeze-pool`: difftest\n"
         "# catalog and QueryGenerator seed "
      << kDifftestSeed
      << ", answers from the naive reference.\n"
         "# id, repeated (1: subquery_cached's set), rows, bag hash, SQL\n";
  for (size_t i = 0; i < pool.size(); ++i) {
    const BenchQuery& query = pool[i].query;
    out << 'g' << i << '\t' << (repeated[i] ? 1 : 0) << '\t' << query.rows
        << '\t' << Hex(query.hash) << '\t' << query.sql << '\n';
  }
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

Result<std::vector<BenchQuery>> SeededPool(Catalog* catalog, uint64_t seed,
                                           int count) {
  QueryGenerator generator(seed);
  std::set<std::string> seen;
  std::vector<BenchQuery> pool;
  for (Candidate& candidate :
       NextCandidates(catalog, &generator, &seen, count)) {
    if (!candidate.answered || CardinalityViolation(candidate.served)) {
      continue;
    }
    char id[32];
    std::snprintf(id, sizeof id, "s%zu", pool.size());
    candidate.query.id = id;
    pool.push_back(std::move(candidate.query));
  }
  if (pool.empty()) return Status::Internal("no seeded query was answered");
  return pool;
}

uint64_t BagHash(const std::vector<std::string>& canonical_rows) {
  uint64_t sum = 0;
  for (const std::string& row : canonical_rows) {
    uint64_t hash = 14695981039346656037ull;  // FNV-1a 64
    for (unsigned char c : row) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    sum += Mix64(hash);
  }
  return sum;
}

uint64_t SplitMix64(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ull;
  return Mix64(*state);
}

}  // namespace orq::bench
