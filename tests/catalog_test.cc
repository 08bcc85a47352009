// Unit tests for catalog, tables, indexes and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"

namespace orq {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = *catalog_.CreateTable("t", {{"id", DataType::kInt64, false},
                                         {"grp", DataType::kInt64, false},
                                         {"val", DataType::kDouble, true}});
    table_->SetPrimaryKey({0});
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(table_
                      ->Append({Value::Int64(i), Value::Int64(i % 3),
                                i == 0 ? Value::Null()
                                       : Value::Double(i * 1.5)})
                      .ok());
    }
  }

  Catalog catalog_;
  Table* table_ = nullptr;
};

TEST_F(CatalogTest, CreateAndFindCaseInsensitive) {
  EXPECT_EQ(catalog_.FindTable("T"), table_);
  EXPECT_EQ(catalog_.FindTable("t"), table_);
  EXPECT_EQ(catalog_.FindTable("nope"), nullptr);
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  Result<Table*> dup = catalog_.CreateTable("T", {{"x", DataType::kInt64}});
  EXPECT_FALSE(dup.ok());
}

TEST_F(CatalogTest, ColumnOrdinalLookup) {
  EXPECT_EQ(table_->ColumnOrdinal("id"), 0);
  EXPECT_EQ(table_->ColumnOrdinal("VAL"), 2);
  EXPECT_EQ(table_->ColumnOrdinal("missing"), -1);
}

TEST_F(CatalogTest, AppendChecksArity) {
  EXPECT_FALSE(table_->Append({Value::Int64(1)}).ok());
  EXPECT_TRUE(table_->Append({Value::Int64(99), Value::Int64(0),
                              Value::Double(1.0)})
                  .ok());
}

TEST_F(CatalogTest, PrimaryKeyRegistersUniqueKey) {
  ASSERT_EQ(table_->unique_keys().size(), 1u);
  EXPECT_EQ(table_->unique_keys()[0], (std::vector<int>{0}));
  table_->AddUniqueKey({1, 2});
  EXPECT_EQ(table_->unique_keys().size(), 2u);
}

TEST_F(CatalogTest, IndexLookupFindsBuckets) {
  table_->BuildIndex({1});
  const TableIndex* index = table_->FindIndex({1});
  ASSERT_NE(index, nullptr);
  std::span<const uint32_t> bucket = index->Lookup({Value::Int64(0)});
  // Row positions of ids 0, 3, 6, 9, in table order.
  EXPECT_EQ(std::vector<uint32_t>(bucket.begin(), bucket.end()),
            (std::vector<uint32_t>{0, 3, 6, 9}));
  EXPECT_TRUE(index->Lookup({Value::Int64(42)}).empty());
  // An int64 key column matches an equal double probe (GroupEquals).
  EXPECT_EQ(index->Lookup({Value::Double(1.0)}).size(), 3u);
  EXPECT_EQ(index->num_entries(), 3u);
}

// The index is the hash-join build layout: one bucket range per distinct
// key over a slots permutation of row positions, grouped by key and in
// table order within each bucket.
TEST_F(CatalogTest, IndexBucketsPartitionRowPositions) {
  table_->BuildIndex({1});
  const KeyBuckets& buckets = table_->FindIndex({1})->buckets();
  ASSERT_EQ(buckets.slots.size(), 10u);
  std::vector<uint32_t> seen;
  ASSERT_EQ(buckets.ranges.size(), buckets.keys.size());
  for (uint32_t id = 0; id < buckets.keys.size(); ++id) {
    const BucketRange& range = buckets.ranges[id];
    for (uint32_t i = range.begin; i < range.begin + range.size; ++i) {
      const uint32_t pos = buckets.slots[i];
      EXPECT_EQ(table_->CellAt(pos, 1).int64_value(),
                buckets.keys.KeyAt(id, 0).int64_value());
      if (i > range.begin) {
        EXPECT_LT(buckets.slots[i - 1], pos);
      }
      seen.push_back(pos);
    }
  }
  std::sort(seen.begin(), seen.end());
  for (uint32_t pos = 0; pos < 10; ++pos) EXPECT_EQ(seen[pos], pos);
}

// NULL never equals anything, so rows with a NULL key column are left out
// of the index altogether.
TEST_F(CatalogTest, IndexLeavesOutNullKeys) {
  table_->BuildIndex({2});  // val is NULL for id 0 only
  const TableIndex* index = table_->FindIndex({2});
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->buckets().slots.size(), 9u);
  EXPECT_EQ(index->num_entries(), 9u);
  EXPECT_TRUE(index->Lookup({Value::Null(DataType::kDouble)}).empty());
  EXPECT_EQ(index->Lookup({Value::Double(1.5)}).size(), 1u);
}

TEST_F(CatalogTest, FindIndexIsOrderInsensitive) {
  table_->BuildIndex({1, 0});
  EXPECT_NE(table_->FindIndex({0, 1}), nullptr);
  EXPECT_NE(table_->FindIndex({1, 0}), nullptr);
  EXPECT_EQ(table_->FindIndex({0}), nullptr);
}

TEST_F(CatalogTest, StatsComputeRowAndDistinctCounts) {
  const TableStats& stats = catalog_.GetStats(*table_);
  EXPECT_DOUBLE_EQ(stats.row_count, 10.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].distinct_count, 10.0);
  EXPECT_DOUBLE_EQ(stats.columns[1].distinct_count, 3.0);
  // val: one NULL out of ten rows.
  EXPECT_DOUBLE_EQ(stats.columns[2].null_fraction, 0.1);
  EXPECT_DOUBLE_EQ(stats.columns[2].min_value.double_value(), 1.5);
  EXPECT_DOUBLE_EQ(stats.columns[2].max_value.double_value(), 13.5);
}

TEST_F(CatalogTest, StatsAreCachedAndInvalidated) {
  const TableStats& first = catalog_.GetStats(*table_);
  EXPECT_DOUBLE_EQ(first.row_count, 10.0);
  ASSERT_TRUE(table_->Append({Value::Int64(100), Value::Int64(1),
                              Value::Double(2.0)})
                  .ok());
  // Cached until invalidated.
  EXPECT_DOUBLE_EQ(catalog_.GetStats(*table_).row_count, 10.0);
  catalog_.InvalidateStats();
  EXPECT_DOUBLE_EQ(catalog_.GetStats(*table_).row_count, 11.0);
}

TEST_F(CatalogTest, EmptyTableStats) {
  Table* empty = *catalog_.CreateTable("e", {{"x", DataType::kInt64, true}});
  const TableStats& stats = catalog_.GetStats(*empty);
  EXPECT_DOUBLE_EQ(stats.row_count, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].distinct_count, 1.0);  // clamped
}

// ---- Storage: Append writes the typed column chunks directly ----

/// Asserts `got` is exactly the appended `want`: same tag and the same
/// payload bits (so -0.0 and NaN payloads survive), or, for a NULL, a NULL
/// of the column's declared type.
void ExpectSameCell(const Value& want, const Value& got, DataType declared,
                    size_t row) {
  if (want.is_null()) {
    EXPECT_TRUE(got.is_null()) << "row " << row;
    EXPECT_EQ(got.type(), declared) << "row " << row;
    return;
  }
  ASSERT_FALSE(got.is_null()) << "row " << row;
  ASSERT_EQ(got.type(), want.type()) << "row " << row;
  switch (want.type()) {
    case DataType::kDouble: {
      const double a = want.double_value(), b = got.double_value();
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << "row " << row;
      break;
    }
    case DataType::kString:
      EXPECT_EQ(got.string_value(), want.string_value()) << "row " << row;
      break;
    default:
      EXPECT_EQ(got.int64_value(), want.int64_value()) << "row " << row;
      break;
  }
}

void ExpectTableHolds(const Table& table, const std::vector<Row>& rows) {
  ASSERT_EQ(table.num_rows(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      ExpectSameCell(rows[r][c], table.CellAt(r, c), table.columns()[c].type,
                     r);
    }
  }
}

TEST(TableStorageTest, EveryTypeRoundTripsCellByCell) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("r", {{"i", DataType::kInt64, true},
                                        {"d", DataType::kDouble, true},
                                        {"dt", DataType::kDate, true},
                                        {"b", DataType::kBool, true},
                                        {"s", DataType::kString, true}});
  const double nan_a = std::bit_cast<double>(uint64_t{0x7ff8000000000001});
  const double nan_b = std::bit_cast<double>(uint64_t{0xfff0000000000abc});
  const std::vector<Row> rows = {
      {Value::Int64(0), Value::Double(-0.0), Value::Date(0),
       Value::Bool(false), Value::String("")},
      {Value::Int64(std::numeric_limits<int64_t>::min()), Value::Double(nan_a),
       Value::Date(-719162), Value::Bool(true),
       Value::String("a string well past the fifteen-byte inline buffer")},
      {Value::Int64(std::numeric_limits<int64_t>::max()), Value::Double(nan_b),
       Value::Date(2932896), Value::Bool(true), Value::String("short")},
      // A NULL in every type, one of them without a type tag.
      {Value::Null(DataType::kInt64), Value::Null(DataType::kDouble),
       Value::Null(DataType::kDate), Value::Null(DataType::kBool),
       Value::Null()},
      {Value::Int64(-7), Value::Double(0.0), Value::Date(10957),
       Value::Bool(false), Value::String("")},
  };
  for (const Row& row : rows) ASSERT_TRUE(t->Append(row).ok());
  for (const TypedColumn& chunk : t->ColumnarChunks()) {
    EXPECT_TRUE(chunk.any_null());
  }
  ExpectTableHolds(*t, rows);
}

TEST(TableStorageTest, RejectedAppendsLeaveTheTableUnchanged) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("a", {{"k", DataType::kInt64, false},
                                        {"g", DataType::kString, true},
                                        {"x", DataType::kDouble, true}});
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value::Int64(i), Value::String("g" + std::to_string(i / 8)),
                    Value::Double(i * 0.25)});
    ASSERT_TRUE(t->Append(rows.back()).ok());
  }
  EXPECT_EQ(t->Append({Value::Int64(1)}).code(),
            StatusCode::kInvalidArgument);
  // A value of another type anywhere in the row, or a NULL in the NOT
  // NULL column k, rejects all of it: the columns before the bad cell stay
  // unwritten too.
  for (const Row& bad :
       {Row{Value::Null(DataType::kInt64), Value::String("g"),
            Value::Double(1.0)},
        Row{Value::Int64(40), Value::Int64(7), Value::Double(1.0)},
        Row{Value::Int64(40), Value::String("g"), Value::String("1.0")},
        Row{Value::Double(40.0), Value::String("g"), Value::Double(1.0)},
        Row{Value::Int64(40), Value::Null(), Value::Bool(true)}}) {
    EXPECT_EQ(t->Append(bad).code(), StatusCode::kInvalidArgument)
        << RowToString(bad);
  }
  ExpectTableHolds(*t, rows);
  // An int64 in a double column widens; a NULL of any tag is a NULL.
  ASSERT_TRUE(
      t->Append({Value::Int64(40), Value::Null(), Value::Int64(-3)}).ok());
  rows.push_back(
      {Value::Int64(40), Value::Null(DataType::kString), Value::Double(-3.0)});
  ExpectTableHolds(*t, rows);
  EXPECT_EQ(t->CellAt(40, 2).type(), DataType::kDouble);
}

/// Column statistics recomputed straight from the appended rows, by the
/// definition ComputeStats implements.
TableStats StatsOf(const std::vector<Row>& rows, size_t num_columns) {
  TableStats stats;
  stats.row_count = static_cast<double>(rows.size());
  stats.columns.resize(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    ColumnStats& cs = stats.columns[c];
    std::unordered_set<size_t> hashes;
    size_t nulls = 0;
    for (const Row& row : rows) {
      const Value& v = row[c];
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      if (hashes.empty()) {
        cs.min_value = v;
        cs.max_value = v;
      }
      hashes.insert(v.Hash());
      if (v.TotalCompare(cs.min_value) < 0) cs.min_value = v;
      if (v.TotalCompare(cs.max_value) > 0) cs.max_value = v;
    }
    cs.distinct_count = hashes.empty() ? 1.0 : hashes.size();
    cs.null_fraction = rows.empty() ? 0.0
                                    : static_cast<double>(nulls) / rows.size();
  }
  return stats;
}

TEST(TableStorageTest, StatsMatchRecomputationFromAppendedRows) {
  const std::vector<ColumnSpec> schema = {{"i", DataType::kInt64, true},
                                          {"d", DataType::kDouble, true},
                                          {"dt", DataType::kDate, true},
                                          {"b", DataType::kBool, true},
                                          {"s", DataType::kString, true},
                                          {"m", DataType::kInt64, true}};
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(
        {i % 13 == 0 ? Value::Null(DataType::kInt64) : Value::Int64(i % 17),
         i % 7 == 0 ? Value::Null(DataType::kDouble)
                    : Value::Double(i % 2 == 0 ? -0.0 : i * 0.25),
         Value::Date(10000 + i / 20),
         i % 11 == 0 ? Value::Null(DataType::kBool) : Value::Bool(i % 3 == 0),
         i % 5 == 0 ? Value::Null(DataType::kString)
                    : Value::String("a long enough string " +
                                    std::to_string(i % 9)),
         // NULL from row 150 on.
         i < 150 ? Value::Int64(i) : Value::Null(DataType::kInt64)});
  }
  const TableStats want = StatsOf(rows, schema.size());
  Catalog catalog;
  Table* t = *catalog.CreateTable("s", schema);
  for (const Row& row : rows) ASSERT_TRUE(t->Append(row).ok());
  const TableStats got = ComputeStats(*t);
  EXPECT_EQ(got.row_count, want.row_count);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    SCOPED_TRACE("column " + std::to_string(c));
    EXPECT_EQ(g.distinct_count, w.distinct_count);
    EXPECT_EQ(g.null_fraction, w.null_fraction);
    ExpectSameCell(w.min_value, g.min_value, w.min_value.type(), 0);
    ExpectSameCell(w.max_value, g.max_value, w.max_value.type(), 0);
  }
}

}  // namespace
}  // namespace orq
