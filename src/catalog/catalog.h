#ifndef ORQ_CATALOG_CATALOG_H_
#define ORQ_CATALOG_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/stats.h"
#include "catalog/table.h"
#include "common/result.h"

namespace orq {

/// The database catalog: named tables plus cached statistics.
class Catalog {
 public:
  Catalog();
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; fails if the name exists.
  Result<Table*> CreateTable(const std::string& name,
                             std::vector<ColumnSpec> columns);

  /// Case-insensitive lookup; nullptr when absent.
  Table* FindTable(const std::string& name) const;

  /// Statistics for a table, computed lazily and cached. Safe under
  /// concurrent readers (the stats cache is internally synchronized; map
  /// nodes are stable, so returned references outlive the lock). Call
  /// InvalidateStats after bulk loads — but never while queries run.
  const TableStats& GetStats(const Table& table);
  void InvalidateStats();

  std::vector<std::string> TableNames() const;

  /// Monotonic schema/stats version for plan-cache invalidation. Values are
  /// drawn from one process-wide counter, so no two Catalog instances (or
  /// the same instance before/after a bump) ever share a version — a cache
  /// keyed on it cannot confuse snapshots. Bumped by CreateTable,
  /// InvalidateStats, and QueryServer::ReplaceCatalog.
  int64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }
  void BumpVersion();

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;  // lower-case keys
  std::mutex stats_mu_;  // guards stats_ (concurrent queries share a catalog)
  std::map<const Table*, TableStats> stats_;
  std::atomic<int64_t> version_;
};

}  // namespace orq

#endif  // ORQ_CATALOG_CATALOG_H_
