#ifndef ORQ_CATALOG_INDEX_H_
#define ORQ_CATALOG_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/key_table.h"
#include "common/value.h"

namespace orq {

class Table;

/// An equality hash index over one or more columns of a base table, in the
/// hash-join build layout (KeyBuckets): each key tuple maps to a range of
/// a slots permutation holding the matching row positions in increasing
/// order. Rows with a NULL key column are left out — an equality probe
/// with NULL never matches (SQL semantics), and probe callers skip NULL
/// keys before probing.
class TableIndex {
 public:
  TableIndex(const Table& table, std::vector<int> ordinals);

  const std::vector<int>& ordinals() const { return ordinals_; }

  /// The key -> slot-range lookup, probed directly by index joins.
  const KeyBuckets& buckets() const { return buckets_; }

  /// Row positions whose key equals `key` (positional, same order as
  /// ordinals()); empty when none.
  std::span<const uint32_t> Lookup(const Row& key) const;

  size_t num_entries() const { return buckets_.keys.size(); }

 private:
  std::vector<int> ordinals_;
  KeyBuckets buckets_;
};

}  // namespace orq

#endif  // ORQ_CATALOG_INDEX_H_
