#include "catalog/stats.h"

#include <unordered_set>

#include "catalog/table.h"

namespace orq {

TableStats ComputeStats(const Table& table) {
  TableStats stats;
  stats.row_count = static_cast<double>(table.num_rows());
  stats.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    std::unordered_set<size_t> hashes;
    size_t nulls = 0;
    bool have_minmax = false;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Value v = table.CellAt(r, c);
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      hashes.insert(v.Hash());
      if (!have_minmax) {
        cs.min_value = v;
        cs.max_value = v;
        have_minmax = true;
      } else {
        if (v.TotalCompare(cs.min_value) < 0) cs.min_value = v;
        if (v.TotalCompare(cs.max_value) > 0) cs.max_value = v;
      }
    }
    cs.distinct_count = hashes.empty() ? 1.0
                                       : static_cast<double>(hashes.size());
    cs.null_fraction = table.num_rows() == 0
                           ? 0.0
                           : static_cast<double>(nulls) / table.num_rows();
  }
  return stats;
}

}  // namespace orq
