// Unit tests for catalog, tables, indexes and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
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
  for (const auto& [key, range] : buckets.map) {
    for (uint32_t i = range.begin; i < range.begin + range.size; ++i) {
      const uint32_t pos = buckets.slots[i];
      EXPECT_EQ(table_->rows()[pos][1].int64_value(),
                key.values[0].int64_value());
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

}  // namespace
}  // namespace orq
