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

/// Storage encoding a table is loaded in (Table::Encode). kAuto picks
/// per column chunk by a cardinality/run-count heuristic; the forced modes
/// apply wherever the column type allows and fall back to plain elsewhere.
enum class TableEncoding : uint8_t { kPlain, kDict, kRle, kAuto };

/// Physical encoding one column chunk ended up with.
enum class ChunkEncoding : uint8_t { kPlain, kDict, kRle };

/// An in-memory, column-major base table with declared keys and optional
/// hash indexes. Tables are append-only: Append writes each row straight
/// into the typed column chunks, which are the only copy of the data.
/// Encode optionally compresses the chunks once, after loading; statistics
/// and indexes are built after loading too.
class Table {
 public:
  Table(std::string name, std::vector<ColumnSpec> columns);

  const std::string& name() const { return name_; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Ordinal of a column by (case-insensitive) name, or -1.
  int ColumnOrdinal(const std::string& name) const;

  /// Appends a row; the row must match the schema arity, and the table
  /// must not be encoded yet (FailedPrecondition otherwise).
  Status Append(Row row);

  /// Encodes every column chunk in place under `mode`, once: the table is
  /// read-only afterwards. Call after loading and before serving queries.
  Status Encode(TableEncoding mode);

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
  /// (mixed = true); correctness never depends on the typed form.
  ///
  /// Encoded forms reuse the payload arrays at a different granularity:
  ///  - kDict: `codes` holds one uint32 per row indexing the payload
  ///    arrays, which hold one entry per distinct value (`dict_hashes`
  ///    pre-computes Value::Hash per entry so column-wise hashing never
  ///    touches the bytes). `nulls` stays one byte per row.
  ///  - kRle: payload arrays and `nulls` hold one entry per run;
  ///    `run_ends` is the cumulative row count (run r covers rows
  ///    [run_ends[r-1], run_ends[r])).
  struct ColumnChunk {
    DataType type = DataType::kInt64;
    bool mixed = false;
    bool any_null = false;
    ChunkEncoding encoding = ChunkEncoding::kPlain;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::string chars;
    std::vector<uint32_t> offsets;  // entries + 1, absolute into chars
    std::vector<Value> vals;        // boxed fallback when mixed
    std::vector<uint8_t> nulls;     // non-zero = NULL (per row; per run in RLE)
    std::vector<uint32_t> codes;       // kDict: one per row
    std::vector<size_t> dict_hashes;   // kDict: one per entry
    std::vector<uint32_t> run_ends;    // kRle: cumulative, one per run

    size_t dict_size() const { return dict_hashes.size(); }
    size_t num_runs() const { return run_ends.size(); }
    /// Footprint of the arrays (boxed values counted at the inline Value
    /// size; their string heap is not tracked).
    size_t bytes() const;
    /// Decodes the cell at `row` under any encoding. A NULL reads back as
    /// Value::Null(type); any other boxed value reads back as appended.
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
  bool encoded_ = false;
  std::vector<int> primary_key_;
  std::vector<std::vector<int>> unique_keys_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
};

}  // namespace orq

#endif  // ORQ_CATALOG_TABLE_H_
