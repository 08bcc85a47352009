#ifndef ORQ_TESTS_TEST_UTIL_H_
#define ORQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/exec.h"
#include "opt/physical.h"

namespace orq {

/// Executes a logical tree through the direct physical translation and
/// returns its rows projected to `cols` (so trees with differing extra
/// columns compare on the meaningful ones).
inline Result<std::vector<Row>> ExecLogical(const RelExprPtr& tree,
                                            const ColumnManager& columns,
                                            const std::vector<ColumnId>& cols) {
  PhysicalBuildOptions options;
  ORQ_ASSIGN_OR_RETURN(PhysicalOpPtr plan,
                       BuildPhysicalPlan(tree, columns, options));
  ExecContext ctx;
  ORQ_ASSIGN_OR_RETURN(std::vector<Row> raw,
                       ExecuteToVector(plan.get(), &ctx));
  std::vector<int> slots;
  for (ColumnId id : cols) {
    int slot = -1;
    for (size_t i = 0; i < plan->layout().size(); ++i) {
      if (plan->layout()[i] == id) slot = static_cast<int>(i);
    }
    if (slot < 0) {
      return Status::Internal("column missing from plan output: #" +
                              std::to_string(id));
    }
    slots.push_back(slot);
  }
  std::vector<Row> out;
  out.reserve(raw.size());
  for (const Row& row : raw) {
    Row projected;
    for (int slot : slots) projected.push_back(row[slot]);
    out.push_back(std::move(projected));
  }
  return out;
}

/// Every row of `table`, decoded cell by cell from its column chunks.
inline std::vector<Row> TableRows(const Table& table) {
  std::vector<Row> rows(table.num_rows(), Row(table.num_columns()));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      rows[r][c] = table.CellAt(r, c);
    }
  }
  return rows;
}

/// Canonical (sorted) string form of a row multiset for comparison.
inline std::vector<std::string> CanonicalRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace orq

#endif  // ORQ_TESTS_TEST_UTIL_H_
