#include "catalog/index.h"

#include "catalog/table.h"

namespace orq {

TableIndex::TableIndex(const Table& table, std::vector<int> ordinals)
    : ordinals_(std::move(ordinals)) {
  const size_t rows = table.num_rows();
  buckets_.Reset(ordinals_.size());
  std::vector<uint32_t> row_bucket(rows, KeyTable::kNone);
  Row key(ordinals_.size());
  for (size_t pos = 0; pos < rows; ++pos) {
    bool null_key = false;
    for (size_t i = 0; i < ordinals_.size(); ++i) {
      key[i] = table.CellAt(pos, ordinals_[i]);
      null_key |= key[i].is_null();
    }
    if (!null_key) row_bucket[pos] = buckets_.Add(key, RowHash{}(key));
  }
  buckets_.Scatter(row_bucket);
}

std::span<const uint32_t> TableIndex::Lookup(const Row& key) const {
  const BucketRange* bucket = buckets_.Find(key);
  if (bucket == nullptr) return {};
  return {buckets_.slots.data() + bucket->begin, bucket->size};
}

}  // namespace orq
