#ifndef ORQ_COMMON_KEY_TABLE_H_
#define ORQ_COMMON_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace orq {

/// One column of values, stored densely and typed: a table column, a
/// KeyTable key column, a hash-join build's payload column. Entry `id` is
/// the id-th value appended. The first non-NULL value fixes the column's
/// type. NULL entries live in the per-entry null bytes; the typed array
/// holds a zero there.
///
/// An append the typed form cannot hold — a value of another type, or a
/// string that would take the arena past uint32 offsets — stores a NULL
/// in its place and fails the column: status() reports it, and the
/// operator filling the column fails the query at its batch boundary.
class TypedColumn {
 public:
  DataType type() const { return type_; }
  ColumnRep rep() const { return rep_; }
  uint32_t size() const { return static_cast<uint32_t>(nulls_.size()); }
  bool IsNull(uint32_t id) const { return nulls_[id] != 0; }
  bool any_null() const { return any_null_; }

  int64_t IntAt(uint32_t id) const { return ints_[id]; }
  double DoubleAt(uint32_t id) const { return doubles_[id]; }
  std::string_view StrAt(uint32_t id) const {
    return std::string_view(chars_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }

  /// Raw arrays, for zero-copy column views. Offsets are absolute into
  /// chars() (size() + 1 of them).
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const char* chars() const { return chars_.data(); }
  size_t ArenaBytes() const { return chars_.size(); }
  const uint32_t* offsets() const { return offsets_.data(); }
  const uint8_t* nulls() const { return nulls_.data(); }

  /// Entry `id` as a Value (NULLs come back as Value::Null(type())).
  Value Get(uint32_t id) const;
  /// Group equality (Value::GroupEquals) of entry `id` and `v`.
  bool EqualsValue(uint32_t id, const Value& v) const;

  void AppendNull();
  /// `type` is kBool, kInt64 or kDate.
  void AppendInt(DataType type, int64_t v);
  void AppendDouble(double v);
  void AppendStr(std::string_view s);
  void AppendValue(const Value& v);
  /// Appends every entry of `src`, in order.
  void AppendFrom(const TypedColumn& src);

  /// Empties the column. `type` is what an all-NULL column reports (a
  /// declared type); the first non-NULL value still fixes the real one.
  void Clear(DataType type = DataType::kInt64);
  size_t MemoryBytes() const;
  /// OK, or why an append failed since the last Clear.
  const Status& status() const { return status_; }

 private:
  /// Prepares a typed append of a non-NULL `type` value: adopts the type
  /// on the first one. False on a mismatch, after failing the column and
  /// storing a NULL in the entry's place.
  bool Accept(DataType type);
  void Fail(Status status);

  DataType type_ = DataType::kInt64;
  ColumnRep rep_ = ColumnRep::kInts;
  bool typed_ = false;  // a non-NULL value fixed type_
  bool any_null_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::string chars_;
  std::vector<uint32_t> offsets_{0};
  std::vector<uint8_t> nulls_;
  Status status_;
};

/// The one keyed hash table: a flat open-addressing table over composite
/// keys under grouping semantics (NULLs equal, Int64(3) == Double(3.0),
/// -0.0 == 0.0, every NaN equal), assigning each distinct key a dense id in
/// insertion order. Hash aggregation uses the ids as group ids, KeyBuckets
/// as bucket ids.
///
/// Keys are stored column-major and typed (TypedColumn), with each entry's
/// precomputed hash, which must be RowHash-compatible: RowHash{}(key row),
/// or its column-wise equal (InitKeyHashes/HashCombineColumn), so a key
/// inserted from a Row and a probe read from columns meet. Each
/// power-of-two slot holds 32 bits of the hash and the entry id; the home
/// slot comes from the hash's bits mixed by a Fibonacci multiply, so keys
/// whose Value::Hash is the identity (dates, bools) do not cluster. Linear
/// probing, at most half full.
class KeyTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  KeyTable() { Reset(0); }
  explicit KeyTable(size_t width) { Reset(width); }

  /// Empties the table for keys of `width` columns. A table grown large
  /// gives its memory back; a small one keeps it for the next use.
  void Reset(size_t width);

  size_t width() const { return cols_.size(); }
  /// Number of distinct keys; ids run 0..size()-1.
  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  const TypedColumn& col(size_t k) const { return cols_[k]; }
  TypedColumn& mutable_col(size_t k) { return cols_[k]; }
  size_t hash(uint32_t id) const { return hashes_[id]; }

  /// The id of the key hashing to `hash` for which `eq(id)` holds, or
  /// kNone. `eq` runs only on entries whose stored hash bits match.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    const uint32_t tag = static_cast<uint32_t>(hash);
    for (size_t i = Home(hash);; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && eq(s.id)) return s.id;
    }
  }

  /// Find, inserting on a miss: `append()` must then append the key to
  /// every column (becoming entry size()). Sets `*inserted`.
  template <typename Eq, typename Append>
  uint32_t FindOrInsert(size_t hash, Eq&& eq, Append&& append,
                        bool* inserted) {
    const uint32_t tag = static_cast<uint32_t>(hash);
    size_t i = Home(hash);
    for (;; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.id == kNone) break;
      if (s.tag == tag && eq(s.id)) {
        *inserted = false;
        return s.id;
      }
    }
    const uint32_t id = size();
    append();
    hashes_.push_back(hash);
    slots_[i] = Slot{tag, id};
    if (hashes_.size() * 2 > slots_.size()) Grow();
    *inserted = true;
    return id;
  }

  /// Row keys (width() values), hashed with RowHash.
  uint32_t FindRow(const Row& key) const;
  uint32_t InsertRow(const Row& key, size_t hash, bool* inserted);
  /// Finds or inserts entry `id` of `src` (same width), reusing its hash.
  uint32_t InsertFrom(const KeyTable& src, uint32_t id, bool* inserted);

  Value KeyAt(uint32_t id, size_t k) const { return cols_[k].Get(id); }
  /// OK, or the first failed key column's status (TypedColumn::status).
  Status status() const;

  /// Calls f(probe length) for every entry: the number of slots a lookup
  /// of that key inspects (1 = found in its home slot).
  template <typename F>
  void ForEachProbeLength(F&& f) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      const uint32_t id = slots_[i].id;
      if (id == kNone) continue;
      f(static_cast<int64_t>(((i - Home(hashes_[id])) & mask_) + 1));
    }
  }

  size_t MemoryBytes() const;

 private:
  struct Slot {
    uint32_t tag;  // low 32 bits of the key's hash
    uint32_t id;
  };

  bool KeyEqualsRow(uint32_t id, const Row& key) const;
  size_t Home(size_t hash) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void Grow();
  void InitSlots(size_t capacity);

  std::vector<TypedColumn> cols_;
  std::vector<size_t> hashes_;  // by id
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
};

/// A bucket's slice of a slots permutation. `filled` is the build-time
/// scatter cursor; unused after the build completes.
struct BucketRange {
  uint32_t begin = 0;
  uint32_t size = 0;
  uint32_t filled = 0;
};

/// The one equality-lookup layout, shared by hash-join build tables and
/// base-table indexes: a KeyTable gives each distinct key a bucket id, and
/// bucket b is the range ranges[b] of `slots`, a permutation of row
/// positions grouped by key (arrival order within a bucket). Built in two
/// passes: Add() counts each row into its key's bucket, then Scatter()
/// lays the buckets out and places the positions.
struct KeyBuckets {
  KeyTable keys;
  std::vector<BucketRange> ranges;  // by bucket id
  std::vector<uint32_t> slots;

  /// Counts one row into the bucket of `key` (RowHash `hash`), inserting
  /// the bucket when new. Returns the bucket id for Scatter's per-row list.
  uint32_t Add(const Row& key, size_t hash) {
    bool inserted = false;
    const uint32_t id = keys.InsertRow(key, hash, &inserted);
    Count(id);
    return id;
  }
  /// Counts one row into bucket `id` of `keys`, which may be the one just
  /// inserted (id == ranges.size()).
  void Count(uint32_t id) {
    if (id == ranges.size()) ranges.emplace_back();
    ++ranges[id].size;
  }

  /// Assigns each bucket a contiguous slot range, then places row position
  /// i into its bucket's range; `row_bucket[i]` is row i's bucket from
  /// Add, or KeyTable::kNone for a row left out (a NULL key). Positions
  /// land in increasing order within each bucket.
  void Scatter(const std::vector<uint32_t>& row_bucket);

  /// The bucket `id` (from a KeyTable lookup), or nullptr for kNone.
  const BucketRange* Range(uint32_t id) const {
    return id == KeyTable::kNone ? nullptr : &ranges[id];
  }
  const BucketRange* Find(const Row& key) const {
    return Range(keys.FindRow(key));
  }

  void Reset(size_t width) {
    keys.Reset(width);
    ranges.clear();
    slots.clear();
  }
};

}  // namespace orq

#endif  // ORQ_COMMON_KEY_TABLE_H_
