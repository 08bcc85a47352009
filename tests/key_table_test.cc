// KeyTable (common/key_table.h), the flat keyed table behind hash
// aggregation, hash-join builds and table indexes: dense ids across growth
// and batch boundaries, grouping semantics (NULLs, cross-type numerics,
// signed zeros, NaN payloads), slot spread for identity-hashed keys, and
// parity between Row-keyed and column-keyed access.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/key_table.h"
#include "engine/engine.h"
#include "exec/column_batch.h"
#include "exec/key_columns.h"
#include "exec/vector_kernels.h"

namespace orq {
namespace {

uint32_t Insert(KeyTable* table, const Row& key) {
  bool inserted = false;
  return table->InsertRow(key, RowHash{}(key), &inserted);
}

/// Group ids of `rows` (one batch of their values) through the columnar
/// path: column-wise hashes, then GroupIds.
std::vector<uint32_t> ColumnIds(KeyTable* table, const std::vector<Row>& rows) {
  ColumnBatch batch(static_cast<int>(rows.size()));
  EXPECT_TRUE(batch
                  .SetRows(rows.data(), static_cast<uint32_t>(rows.size()),
                           table->width())
                  .ok());
  batch.set_num_rows(static_cast<uint32_t>(rows.size()));
  std::vector<const ColumnVec*> cols;
  std::vector<size_t> hashes;
  InitKeyHashes(batch, &hashes);
  for (size_t k = 0; k < table->width(); ++k) {
    cols.push_back(&batch.col(k));
    HashCombineColumn(batch, batch.col(k), &hashes);
  }
  std::vector<uint32_t> ids;
  GroupIds(table, batch, cols.data(), hashes, &ids);
  return ids;
}

TEST(KeyTableTest, GrowsAcrossBatchBoundaries) {
  // 5000 distinct two-column keys in batches of 1000, each key arriving
  // twice: the table grows from 16 slots mid-batch many times, ids stay
  // dense in first-arrival order, and every key keeps its id.
  KeyTable table(2);
  auto key = [](int i) {
    return Row{Value::Int64(i % 97), Value::String("k" + std::to_string(i))};
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (int begin = 0; begin < 5000; begin += 1000) {
      std::vector<Row> rows;
      for (int i = begin; i < begin + 1000; ++i) rows.push_back(key(i));
      const std::vector<uint32_t> ids = ColumnIds(&table, rows);
      for (int j = 0; j < 1000; ++j) {
        ASSERT_EQ(ids[j], static_cast<uint32_t>(begin + j));
      }
    }
  }
  ASSERT_EQ(table.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(table.FindRow(key(i)), static_cast<uint32_t>(i));
    EXPECT_EQ(table.KeyAt(i, 1).string_value(), "k" + std::to_string(i));
  }
  EXPECT_EQ(table.FindRow({Value::Int64(1), Value::String("k2")}),
            KeyTable::kNone);
}

TEST(KeyTableTest, GroupingSemantics) {
  KeyTable table(1);
  // NULLs group together, whatever their tag.
  const uint32_t null_id = Insert(&table, {Value::Null(DataType::kInt64)});
  EXPECT_EQ(Insert(&table, {Value::Null(DataType::kDouble)}), null_id);
  // Double(3.0) and an Int64(3) probe are one group; so are -0.0 and 0.0.
  const uint32_t three = Insert(&table, {Value::Double(3.0)});
  EXPECT_EQ(Insert(&table, {Value::Int64(3)}), three);
  EXPECT_NE(Insert(&table, {Value::Double(3.5)}), three);
  const uint32_t zero = Insert(&table, {Value::Double(0.0)});
  EXPECT_EQ(Insert(&table, {Value::Double(-0.0)}), zero);
  EXPECT_EQ(Insert(&table, {Value::Int64(0)}), zero);
  // Every NaN payload and sign is one group.
  const uint32_t nan = Insert(&table, {Value::Double(std::nan("1"))});
  EXPECT_EQ(Insert(&table, {Value::Double(std::nan("2"))}), nan);
  EXPECT_EQ(Insert(&table, {Value::Double(-std::nan(""))}), nan);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_EQ(table.col(0).rep(), ColumnRep::kDoubles);
  // The same groups hold column-keyed.
  const std::vector<uint32_t> ids = ColumnIds(
      &table, {{Value::Double(3.0)}, {Value::Double(-0.0)},
               {Value::Double(-std::nan("7"))}, {Value::Null()}});
  EXPECT_EQ(ids, (std::vector<uint32_t>{three, zero, nan, null_id}));
  EXPECT_EQ(table.size(), 5u);
  EXPECT_TRUE(table.status().ok());
}

TEST(KeyTableTest, KeyOfAnotherTypeFailsTheColumn) {
  // A key column holds one type: a new key of another type is stored as
  // NULL and fails the table, which the operator reports at its batch
  // boundary. Clear() resets the column.
  KeyTable table(1);
  Insert(&table, {Value::Int64(1)});
  EXPECT_EQ(Insert(&table, {Value::String("one")}), 1u);
  EXPECT_EQ(table.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(table.col(0).IsNull(1));
  EXPECT_EQ(table.col(0).rep(), ColumnRep::kInts);
  table.Reset(1);
  Insert(&table, {Value::String("one")});
  EXPECT_TRUE(table.status().ok());
}

TEST(KeyTableTest, TypedColumnsMatchAcrossRepresentations) {
  // A typed int64 key column probed by a double column, and the reverse.
  KeyTable ints(1);
  ColumnIds(&ints, {{Value::Int64(1)}, {Value::Int64(2)}});
  EXPECT_EQ(ints.col(0).rep(), ColumnRep::kInts);
  EXPECT_EQ(ColumnIds(&ints, {{Value::Double(2.0)}, {Value::Double(1.0)}}),
            (std::vector<uint32_t>{1, 0}));
  KeyTable doubles(1);
  ColumnIds(&doubles, {{Value::Double(1.0)}, {Value::Double(2.0)}});
  EXPECT_EQ(doubles.col(0).rep(), ColumnRep::kDoubles);
  EXPECT_EQ(ColumnIds(&doubles, {{Value::Int64(2)}, {Value::Int64(1)}}),
            (std::vector<uint32_t>{1, 0}));
  EXPECT_EQ(doubles.size(), 2u);
  // Typed double keys against typed double probes: signed zeros and NaN
  // payloads group.
  ColumnIds(&doubles, {{Value::Double(-0.0)}, {Value::Double(std::nan("1"))}});
  EXPECT_EQ(doubles.col(0).rep(), ColumnRep::kDoubles);
  EXPECT_EQ(ColumnIds(&doubles, {{Value::Double(-std::nan("2"))},
                                 {Value::Double(0.0)}}),
            (std::vector<uint32_t>{3, 2}));
  EXPECT_EQ(doubles.size(), 4u);
}

/// Longest and mean probe length over the table's entries.
void ProbeShape(const KeyTable& table, int64_t* longest, double* mean) {
  int64_t total = 0;
  *longest = 0;
  table.ForEachProbeLength([&](int64_t probes) {
    total += probes;
    *longest = std::max(*longest, probes);
  });
  *mean = static_cast<double>(total) / table.size();
}

TEST(KeyTableTest, DenseIdentityHashedKeysDoNotCluster) {
  // Dates and bools hash to themselves (HashDateOrBool), so dense
  // dates are consecutive hashes; dates 1024 days apart share their low
  // ten hash bits. Neither may pile up in a run of slots.
  for (int stride : {1, 1024}) {
    KeyTable table(1);
    for (int i = 0; i < 20000; ++i) {
      Insert(&table, {Value::Date(8000 + i * stride)});
    }
    int64_t longest = 0;
    double mean = 0.0;
    ProbeShape(table, &longest, &mean);
    EXPECT_LE(longest, 16) << "stride " << stride;
    EXPECT_LT(mean, 2.0) << "stride " << stride;
  }
}

/// RowHash of each one-value key in `rows`, column-wise through
/// HashCombineColumn: over the batch as given, then under a selection of
/// every other row.
void ExpectColumnHashesMatchRows(const std::vector<Row>& rows,
                                 ColumnRep want_rep) {
  ColumnBatch batch(static_cast<int>(rows.size()));
  ASSERT_TRUE(
      batch.SetRows(rows.data(), static_cast<uint32_t>(rows.size()), 1).ok());
  ASSERT_EQ(batch.col(0).rep(), want_rep) << RowToString(rows[0]);
  std::vector<size_t> hashes;
  InitKeyHashes(batch, &hashes);
  HashCombineColumn(batch, batch.col(0), &hashes);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(hashes[i], RowHash{}(rows[i])) << RowToString(rows[i]);
  }
  std::vector<uint32_t>* sel = batch.MutableSelection();
  for (uint32_t i = 1; i < rows.size(); i += 2) sel->push_back(i);
  InitKeyHashes(batch, &hashes);
  HashCombineColumn(batch, batch.col(0), &hashes);
  for (uint32_t j = 0; j < batch.selected(); ++j) {
    EXPECT_EQ(hashes[j], RowHash{}(rows[batch.RowAt(j)]))
        << RowToString(rows[batch.RowAt(j)]);
  }
}

TEST(KeyTableTest, HashParityAcrossValueRefAndColumnLoops) {
  // Value::Hash and every typed HashCombineColumn loop are one hash, and
  // values equal under grouping semantics hash alike.
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double nan_payload = std::bit_cast<double>(0x7ff8000000000123ull);
  const double nan_negative = std::bit_cast<double>(0xfff8000000000000ull);
  const Value null_int = Value::Null(DataType::kInt64);
  const std::vector<Row> ints = {
      {Value::Int64(kTwo53)},      {Value::Int64(-kTwo53)},
      {Value::Int64(kTwo53 + 1)},  {Value::Int64(-kTwo53 - 1)},
      {Value::Int64(kMin)},        {null_int},
      {Value::Int64(kMax)},        {Value::Int64(3)},
      {Value::Int64(0)},           {Value::Int64(-1)}};
  const std::vector<Row> doubles = {
      {Value::Double(3.0)},           {Value::Double(0.0)},
      {Value::Double(-0.0)},          {Value::Null(DataType::kDouble)},
      {Value::Double(nan)},           {Value::Double(nan_payload)},
      {Value::Double(nan_negative)},  {Value::Double(9007199254740992.0)},
      {Value::Double(-9223372036854775808.0)},
      {Value::Double(std::numeric_limits<double>::infinity())}};
  const std::vector<Row> dates = {{Value::Date(0)},
                                  {Value::Date(-1)},
                                  {Value::Null(DataType::kDate)},
                                  {Value::Date(9000)}};
  const std::vector<Row> bools = {{Value::Bool(true)},
                                  {Value::Null(DataType::kBool)},
                                  {Value::Bool(false)}};
  const std::vector<Row> strings = {{Value::String("x")},
                                    {Value::String("")},
                                    {Value::Null(DataType::kString)}};
  ExpectColumnHashesMatchRows(ints, ColumnRep::kInts);
  ExpectColumnHashesMatchRows(doubles, ColumnRep::kDoubles);
  ExpectColumnHashesMatchRows(dates, ColumnRep::kInts);
  ExpectColumnHashesMatchRows(bools, ColumnRep::kInts);
  ExpectColumnHashesMatchRows(strings, ColumnRep::kStrings);

  EXPECT_EQ(Value::Int64(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::Int64(kTwo53).Hash(),
            Value::Double(9007199254740992.0).Hash());
  EXPECT_EQ(Value::Int64(kMin).Hash(),
            Value::Double(-9223372036854775808.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_EQ(Value::Double(0.0).Hash(), Value::Int64(0).Hash());
  EXPECT_EQ(Value::Double(nan).Hash(), Value::Double(nan_payload).Hash());
  EXPECT_EQ(Value::Double(nan).Hash(), Value::Double(nan_negative).Hash());
  EXPECT_EQ(null_int.Hash(), Value::Null(DataType::kString).Hash());
  // Neighbours do not collide.
  EXPECT_NE(Value::Int64(kTwo53).Hash(), Value::Int64(kTwo53 + 1).Hash());
  EXPECT_NE(Value::Int64(kMax).Hash(), Value::Int64(kMax - 1).Hash());
}

TEST(KeyTableTest, RowAndColumnKeysMeet) {
  // RowHash parity: an entry inserted from a Row is found by a
  // column-keyed probe, and one inserted from columns by a Row probe.
  const std::vector<Row> keys = {
      {Value::Int64(7), Value::String("x"), Value::Date(9000)},
      {Value::Null(), Value::String(""), Value::Date(-1)},
      {Value::Int64(-25), Value::Null(), Value::Date(0)},
  };
  KeyTable by_row(3);
  for (const Row& key : keys) Insert(&by_row, key);
  EXPECT_EQ(ColumnIds(&by_row, keys), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(by_row.size(), 3u);
  KeyTable by_col(3);
  ColumnIds(&by_col, keys);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(by_col.FindRow(keys[i]), i);
    EXPECT_EQ(by_col.hash(i), RowHash{}(keys[i]));
  }
  // A probe for a key neither table holds misses on both paths.
  KeyTable copy(3);
  bool inserted = false;
  for (uint32_t i = 0; i < by_col.size(); ++i) {
    copy.InsertFrom(by_col, i, &inserted);
    EXPECT_TRUE(inserted);
    copy.InsertFrom(by_row, i, &inserted);
    EXPECT_FALSE(inserted);
  }
  EXPECT_EQ(copy.FindRow({Value::Int64(8), Value::String("x"),
                          Value::Date(9000)}),
            KeyTable::kNone);
}

TEST(KeyBucketsTest, NullKeysNeverJoin) {
  // NULL join keys group in a KeyTable but never match in a join: the
  // build and the probe both skip them, in every execution mode.
  Catalog catalog;
  Table* a = *catalog.CreateTable("a", {{"k", DataType::kInt64, true}});
  Table* b = *catalog.CreateTable("b", {{"k", DataType::kInt64, true}});
  for (Table* t : {a, b}) {
    ASSERT_TRUE(t->Append({Value::Null()}).ok());
    ASSERT_TRUE(t->Append({Value::Int64(1)}).ok());
    ASSERT_TRUE(t->Append({Value::Null()}).ok());
  }
  for (bool batched : {false, true}) {
    EngineOptions options = EngineOptions::Full();
    options.exec.batched = batched;
    QueryEngine engine(&catalog, options);
    Result<QueryResult> joined =
        engine.Execute("SELECT COUNT(*) FROM a, b WHERE a.k = b.k");
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined->rows[0][0].int64_value(), 1);
    Result<QueryResult> grouped =
        engine.Execute("SELECT k, COUNT(*) FROM a GROUP BY k");
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    EXPECT_EQ(grouped->rows.size(), 2u);
  }
}

}  // namespace
}  // namespace orq
