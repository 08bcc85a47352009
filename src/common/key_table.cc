#include "common/key_table.h"

#include <bit>
#include <cmath>

namespace orq {

namespace {

/// Slot counts: a table starts at kMinSlots, and Reset gives back the
/// memory of one grown past kKeepSlots.
constexpr size_t kMinSlots = 16;
constexpr size_t kKeepSlots = 4096;

/// Double group equality: -0.0 == 0.0 and every NaN equals every NaN.
bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

}  // namespace

Value TypedColumn::Get(uint32_t id) const {
  if (nulls_[id] != 0) return Value::Null(type_);
  switch (rep_) {
    case ColumnRep::kInts: return IntValue(type_, ints_[id]);
    case ColumnRep::kDoubles: return Value::Double(doubles_[id]);
    case ColumnRep::kStrings: return Value::String(std::string(StrAt(id)));
  }
  return Value::Null(type_);
}

bool TypedColumn::EqualsValue(uint32_t id, const Value& v) const {
  const bool null = nulls_[id] != 0;
  if (null || v.is_null()) return null == v.is_null();
  if (v.type() == type_) {
    switch (rep_) {
      case ColumnRep::kInts: return ints_[id] == v.int64_value();
      case ColumnRep::kDoubles:
        return SameDouble(doubles_[id], v.double_value());
      case ColumnRep::kStrings: return StrAt(id) == v.string_value();
    }
  }
  return Get(id).GroupEquals(v);
}

bool TypedColumn::Accept(DataType type) {
  if (typed_) {
    if (type == type_) return true;
    Fail(Status::Internal("a value of type " + DataTypeName(type) +
                          " in a " + DataTypeName(type_) + " column"));
    return false;
  }
  // The first non-NULL value: retype the all-NULL prefix.
  typed_ = true;
  type_ = type;
  const ColumnRep rep = RepForType(type);
  if (rep != rep_) {
    const size_t n = nulls_.size();
    ints_.clear();
    doubles_.clear();
    offsets_.assign(1, 0);
    switch (rep) {
      case ColumnRep::kDoubles: doubles_.assign(n, 0.0); break;
      case ColumnRep::kStrings: offsets_.assign(n + 1, 0); break;
      default: ints_.assign(n, 0); break;
    }
    rep_ = rep;
  }
  return true;
}

void TypedColumn::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
  AppendNull();
}

void TypedColumn::AppendNull() {
  any_null_ = true;
  nulls_.push_back(1);
  switch (rep_) {
    case ColumnRep::kInts: ints_.push_back(0); break;
    case ColumnRep::kDoubles: doubles_.push_back(0.0); break;
    case ColumnRep::kStrings: offsets_.push_back(offsets_.back()); break;
  }
}

void TypedColumn::AppendInt(DataType type, int64_t v) {
  if (!Accept(type)) return;
  ints_.push_back(v);
  nulls_.push_back(0);
}

void TypedColumn::AppendDouble(double v) {
  if (!Accept(DataType::kDouble)) return;
  doubles_.push_back(v);
  nulls_.push_back(0);
}

void TypedColumn::AppendStr(std::string_view s) {
  if (!Accept(DataType::kString)) return;
  // Offsets are uint32 (zero-copy string views need them so).
  if (chars_.size() + s.size() > UINT32_MAX) {
    return Fail(
        Status::RuntimeError("a string column outgrew its 4 GiB arena"));
  }
  chars_.append(s.data(), s.size());
  offsets_.push_back(static_cast<uint32_t>(chars_.size()));
  nulls_.push_back(0);
}

void TypedColumn::AppendValue(const Value& v) {
  if (v.is_null()) return AppendNull();
  switch (v.type()) {
    case DataType::kDouble: return AppendDouble(v.double_value());
    case DataType::kString: return AppendStr(v.string_value());
    default: return AppendInt(v.type(), v.int64_value());
  }
}

void TypedColumn::AppendFrom(const TypedColumn& src) {
  if (!src.status_.ok() && status_.ok()) status_ = src.status_;
  for (uint32_t id = 0; id < src.size(); ++id) {
    if (src.IsNull(id)) {
      AppendNull();
    } else if (src.rep_ == ColumnRep::kInts) {
      AppendInt(src.type_, src.ints_[id]);
    } else if (src.rep_ == ColumnRep::kDoubles) {
      AppendDouble(src.doubles_[id]);
    } else {
      AppendStr(src.StrAt(id));
    }
  }
}

void TypedColumn::Clear(DataType type) {
  type_ = type;
  rep_ = RepForType(type);
  typed_ = false;
  any_null_ = false;
  ints_.clear();
  doubles_.clear();
  chars_.clear();
  offsets_.assign(1, 0);
  nulls_.clear();
  status_ = Status::OK();
}

size_t TypedColumn::MemoryBytes() const {
  return ints_.capacity() * sizeof(int64_t) +
         doubles_.capacity() * sizeof(double) + chars_.capacity() +
         offsets_.capacity() * sizeof(uint32_t) + nulls_.capacity();
}

Status KeyTable::status() const {
  for (const TypedColumn& col : cols_) ORQ_RETURN_IF_ERROR(col.status());
  return Status::OK();
}

void KeyTable::Reset(size_t width) {
  if (slots_.capacity() > kKeepSlots) {
    std::vector<Slot>().swap(slots_);
    std::vector<size_t>().swap(hashes_);
    cols_.clear();
  }
  cols_.resize(width);
  for (TypedColumn& col : cols_) col.Clear();
  hashes_.clear();
  InitSlots(kMinSlots);
}

void KeyTable::InitSlots(size_t capacity) {
  slots_.assign(capacity, Slot{0, kNone});
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
}

void KeyTable::Grow() {
  InitSlots(slots_.size() * 2);
  for (uint32_t id = 0; id < size(); ++id) {
    size_t i = Home(hashes_[id]);
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = Slot{static_cast<uint32_t>(hashes_[id]), id};
  }
}

bool KeyTable::KeyEqualsRow(uint32_t id, const Row& key) const {
  if (key.size() != cols_.size()) return false;
  for (size_t k = 0; k < cols_.size(); ++k) {
    if (!cols_[k].EqualsValue(id, key[k])) return false;
  }
  return true;
}

uint32_t KeyTable::FindRow(const Row& key) const {
  return Find(RowHash{}(key),
              [&](uint32_t id) { return KeyEqualsRow(id, key); });
}

uint32_t KeyTable::InsertRow(const Row& key, size_t hash, bool* inserted) {
  return FindOrInsert(
      hash, [&](uint32_t id) { return KeyEqualsRow(id, key); },
      [&] {
        for (size_t k = 0; k < cols_.size(); ++k) cols_[k].AppendValue(key[k]);
      },
      inserted);
}

uint32_t KeyTable::InsertFrom(const KeyTable& src, uint32_t src_id,
                              bool* inserted) {
  Row key(width());
  for (size_t k = 0; k < key.size(); ++k) key[k] = src.KeyAt(src_id, k);
  return InsertRow(key, src.hash(src_id), inserted);
}

size_t KeyTable::MemoryBytes() const {
  size_t bytes = slots_.capacity() * sizeof(Slot) +
                 hashes_.capacity() * sizeof(size_t);
  for (const TypedColumn& col : cols_) bytes += col.MemoryBytes();
  return bytes;
}

void KeyBuckets::Scatter(const std::vector<uint32_t>& row_bucket) {
  uint32_t offset = 0;
  for (BucketRange& range : ranges) {
    range.begin = offset;
    offset += range.size;
  }
  slots.resize(offset);
  for (size_t i = 0; i < row_bucket.size(); ++i) {
    if (row_bucket[i] == KeyTable::kNone) continue;
    BucketRange& range = ranges[row_bucket[i]];
    slots[range.begin + range.filled++] = static_cast<uint32_t>(i);
  }
}

}  // namespace orq
