#ifndef ORQ_CATALOG_TABLE_H_
#define ORQ_CATALOG_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/index.h"
#include "common/key_table.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace orq {

/// Definition of one base-table column.
struct ColumnSpec {
  std::string name;
  DataType type = DataType::kInt64;
  bool nullable = true;
};

/// An in-memory, column-major base table with declared keys and optional
/// hash indexes. Tables are append-only: Append writes each row straight
/// into the typed column chunks, which are the only copy of the data and
/// its only layout; statistics and indexes are built after loading.
class Table {
 public:
  Table(std::string name, std::vector<ColumnSpec> columns);

  const std::string& name() const { return name_; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Ordinal of a column by (case-insensitive) name, or -1.
  int ColumnOrdinal(const std::string& name) const;

  /// Appends a row; the row must match the schema arity, and every
  /// non-NULL value the column's declared type. An int64 in a double
  /// column widens to double. Any other mismatch, a NULL in a column
  /// declared NOT NULL (the optimizer's NotNullColumns trusts the
  /// declaration), or a string that would take its column's arena past
  /// uint32 offsets, is InvalidArgument, and the table is left unchanged.
  Status Append(Row row);

  /// Declares the primary key (column ordinals). Keys feed the optimizer's
  /// key-derivation (identities 7-9 require keys; Max1row elimination uses
  /// them too).
  void SetPrimaryKey(std::vector<int> ordinals) {
    primary_key_ = std::move(ordinals);
    unique_keys_.push_back(primary_key_);
  }
  /// Declares an additional unique key.
  void AddUniqueKey(std::vector<int> ordinals) {
    unique_keys_.push_back(std::move(ordinals));
  }
  const std::vector<int>& primary_key() const { return primary_key_; }
  const std::vector<std::vector<int>>& unique_keys() const {
    return unique_keys_;
  }

  /// The columns' storage, one TypedColumn per column (entry i is row i),
  /// behind every reader: zero-copy columnar scans view it, row readers
  /// decode cells from it. References stay valid until the next Append.
  const std::vector<TypedColumn>& ColumnarChunks() const { return chunks_; }

  /// Decodes one cell; a NULL reads back as Value::Null(declared type).
  Value CellAt(size_t row, size_t col) const {
    return chunks_[col].Get(static_cast<uint32_t>(row));
  }

  /// Builds (or rebuilds) a hash index over the given ordinals. Indexes
  /// enable the IndexApply physical strategy (correlated execution with
  /// index lookup, paper section 4).
  void BuildIndex(std::vector<int> ordinals);
  /// Returns an index exactly covering `ordinals` (order-insensitive), or
  /// nullptr.
  const TableIndex* FindIndex(const std::vector<int>& ordinals) const;
  const std::vector<std::unique_ptr<TableIndex>>& indexes() const {
    return indexes_;
  }

 private:
  std::string name_;
  std::vector<ColumnSpec> columns_;
  std::vector<TypedColumn> chunks_;
  size_t num_rows_ = 0;
  std::vector<int> primary_key_;
  std::vector<std::vector<int>> unique_keys_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
};

}  // namespace orq

#endif  // ORQ_CATALOG_TABLE_H_
