#include "catalog/catalog.h"

#include "common/str_util.h"

namespace orq {

namespace {

// Process-wide version source: see Catalog::version().
int64_t NextCatalogVersion() {
  static std::atomic<int64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Catalog::Catalog() : version_(NextCatalogVersion()) {}

void Catalog::BumpVersion() {
  version_.store(NextCatalogVersion(), std::memory_order_relaxed);
}

Result<Table*> Catalog::CreateTable(const std::string& name,
                                    std::vector<ColumnSpec> columns) {
  std::string key = ToLower(name);
  if (tables_.count(key) > 0) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  auto table = std::make_unique<Table>(name, std::move(columns));
  Table* ptr = table.get();
  tables_[key] = std::move(table);
  BumpVersion();
  return ptr;
}

Table* Catalog::FindTable(const std::string& name) const {
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const TableStats& Catalog::GetStats(const Table& table) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  auto it = stats_.find(&table);
  if (it == stats_.end()) {
    // Computed under the lock: the first query over a table pays once and
    // concurrent racers wait for that computation instead of repeating it.
    it = stats_.emplace(&table, ComputeStats(table)).first;
  }
  return it->second;
}

void Catalog::InvalidateStats() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.clear();
  }
  // Fresh stats can change optimizer choices, so cached plans compiled
  // against the old statistics must not be reused.
  BumpVersion();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

}  // namespace orq
