#ifndef ORQ_COMMON_PACKED_KEY_H_
#define ORQ_COMMON_PACKED_KEY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"

namespace orq {

/// A hash-table key with its hash precomputed at insertion time. Buckets
/// are compared hash-first, so the common miss rehashes nothing and the
/// full Value-by-Value comparison only runs on hash collisions.
struct PackedKey {
  Row values;
  size_t hash;

  explicit PackedKey(Row v) : values(std::move(v)), hash(RowHash{}(values)) {}
};

class ColumnVec;

/// A columnar probe key: one physical row read through `num_keys` key
/// columns (of one batch, indexed by the same physical rows), with its
/// RowHash-compatible hash precomputed column-wise (see HashCombineColumn
/// in exec/vector_kernels.h). Lets the columnar aggregate/join paths probe
/// PackedKey tables without decoding the key into a Row unless the probe
/// actually inserts.
struct ColumnKeyRef {
  const ColumnVec* const* cols;
  size_t num_keys;
  uint32_t row;
  size_t hash;
};

/// Transparent functors (C++20 heterogeneous lookup): probes pass a plain
/// scratch Row (or a ColumnKeyRef) to find(), so a lookup never constructs
/// a PackedKey — and therefore never copies key values — unless it
/// actually inserts.
struct PackedKeyHash {
  using is_transparent = void;
  size_t operator()(const PackedKey& k) const { return k.hash; }
  size_t operator()(const Row& r) const { return RowHash{}(r); }
  size_t operator()(const ColumnKeyRef& r) const { return r.hash; }
};

struct PackedKeyEq {
  using is_transparent = void;
  bool operator()(const PackedKey& a, const PackedKey& b) const {
    return a.hash == b.hash && RowGroupEq{}(a.values, b.values);
  }
  bool operator()(const PackedKey& a, const Row& b) const {
    return RowGroupEq{}(a.values, b);
  }
  bool operator()(const Row& a, const PackedKey& b) const {
    return RowGroupEq{}(a, b.values);
  }
  /// Defined in exec/packed_key.cc, next to the ColumnVec accessors it
  /// reads; only the columnar executor probes with a ColumnKeyRef.
  bool operator()(const PackedKey& a, const ColumnKeyRef& b) const;
  bool operator()(const ColumnKeyRef& a, const PackedKey& b) const {
    return operator()(b, a);
  }
};

/// A bucket's slice of a slots permutation. `filled` is the build-time
/// scatter cursor; unused after the build completes.
struct BucketRange {
  uint32_t begin = 0;
  uint32_t size = 0;
  uint32_t filled = 0;
};

/// The one equality-lookup layout, shared by hash-join build tables and
/// base-table indexes: a packed key maps to a contiguous range of `slots`,
/// a permutation of row positions grouped by key (arrival order within a
/// bucket). Built in two passes: Add() counts each row into its key's
/// bucket, then Scatter() lays the buckets out and places the positions.
struct KeyBuckets {
  std::unordered_map<PackedKey, BucketRange, PackedKeyHash, PackedKeyEq> map;
  std::vector<uint32_t> slots;

  /// Counts one row into the bucket of `*key`, inserting the bucket (and
  /// moving the key out of `*key`, which is left a fresh key of the same
  /// width) when it is new. Returns the bucket for Scatter's per-row list.
  BucketRange* Add(Row* key) {
    auto it = map.find(*key);
    if (it == map.end()) {
      it = map.emplace(PackedKey(std::move(*key)), BucketRange{}).first;
      *key = Row(it->first.values.size());
    }
    ++it->second.size;
    return &it->second;
  }
  /// Add for a key whose hash is already packed (parallel build merge).
  BucketRange* Add(PackedKey key) {
    auto it = map.find(key);
    if (it == map.end()) it = map.emplace(std::move(key), BucketRange{}).first;
    ++it->second.size;
    return &it->second;
  }

  /// Assigns each bucket a contiguous slot range, then places row position
  /// i into its bucket's range; `row_bucket[i]` is row i's bucket from
  /// Add, or nullptr for a row left out (a NULL key). Positions land in
  /// increasing order within each bucket.
  void Scatter(const std::vector<BucketRange*>& row_bucket) {
    uint32_t offset = 0;
    for (auto& entry : map) {
      entry.second.begin = offset;
      offset += entry.second.size;
    }
    slots.resize(offset);
    for (size_t i = 0; i < row_bucket.size(); ++i) {
      BucketRange* bucket = row_bucket[i];
      if (bucket == nullptr) continue;
      slots[bucket->begin + bucket->filled++] = static_cast<uint32_t>(i);
    }
  }

  /// The bucket of `key` (a PackedKey, Row or ColumnKeyRef), or nullptr.
  template <typename Key>
  const BucketRange* Find(const Key& key) const {
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }

  void Clear() {
    map.clear();
    slots.clear();
  }
};

}  // namespace orq

#endif  // ORQ_COMMON_PACKED_KEY_H_
