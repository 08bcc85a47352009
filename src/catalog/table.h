#ifndef ORQ_CATALOG_TABLE_H_
#define ORQ_CATALOG_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/index.h"
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

  /// Appends a row; the row must match the schema arity.
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

  /// One table column as a contiguous typed array, the storage behind
  /// every reader: zero-copy columnar scans view it, row readers decode
  /// cells from it with GetValue. Dates/bools/int64s share the
  /// int64 array; strings are an arena plus absolute offsets. A column
  /// whose values ever disagree with the declared type — or whose string
  /// arena would outgrow uint32 offsets — falls back to boxed `vals`
  /// (mixed = true); correctness never depends on the typed form. Every
  /// array holds one entry per row (offsets one more).
  struct ColumnChunk {
    DataType type = DataType::kInt64;
    bool mixed = false;
    bool any_null = false;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::string chars;
    std::vector<uint32_t> offsets;  // rows + 1, absolute into chars
    std::vector<Value> vals;        // boxed fallback when mixed
    std::vector<uint8_t> nulls;     // non-zero = NULL

    /// Decodes the cell at `row`. A NULL reads back as Value::Null(type);
    /// any other boxed value reads back as appended.
    Value GetValue(size_t row) const;
  };

  /// The column chunks, one per column. References stay valid until the
  /// next Append.
  const std::vector<ColumnChunk>& ColumnarChunks() const { return chunks_; }

  /// Decodes one cell (ColumnChunk::GetValue).
  Value CellAt(size_t row, size_t col) const {
    return chunks_[col].GetValue(row);
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
  std::vector<ColumnChunk> chunks_;
  size_t num_rows_ = 0;
  std::vector<int> primary_key_;
  std::vector<std::vector<int>> unique_keys_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
};

}  // namespace orq

#endif  // ORQ_CATALOG_TABLE_H_
