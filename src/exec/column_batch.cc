#include "exec/column_batch.h"

#include <cmath>
#include <functional>

namespace orq {

Value ColumnVec::GetValue(uint32_t i) const {
  if (rep_ == ColumnRep::kValues) return vals_[i];
  if (IsNull(i)) return Value::Null(type_);
  switch (rep_) {
    case ColumnRep::kInts:
      switch (type_) {
        case DataType::kBool: return Value::Bool(IntAt(i) != 0);
        case DataType::kDate:
          return Value::Date(static_cast<int32_t>(IntAt(i)));
        default: return Value::Int64(IntAt(i));
      }
    case ColumnRep::kDoubles:
      return Value::Double(DoubleAt(i));
    case ColumnRep::kStrings:
      return Value::String(std::string(StrAt(i)));
    default:
      return vals_[i];
  }
}

void ColumnVec::StartBuild(DataType type, uint32_t reserve) {
  ReleaseOwned();
  type_ = type;
  rep_ = RepForType(type);
  switch (rep_) {
    case ColumnRep::kInts: own_ints_.reserve(reserve); break;
    case ColumnRep::kDoubles: own_doubles_.reserve(reserve); break;
    case ColumnRep::kStrings:
      own_offsets_.reserve(reserve + 1);
      own_offsets_.push_back(0);
      break;
    default: break;
  }
  own_nulls_.reserve(reserve);
}

void ColumnVec::AppendNull() {
  any_null_ = true;
  switch (rep_) {
    case ColumnRep::kInts: own_ints_.push_back(0); break;
    case ColumnRep::kDoubles: own_doubles_.push_back(0.0); break;
    case ColumnRep::kStrings:
      own_offsets_.push_back(static_cast<uint32_t>(own_chars_.size()));
      break;
    case ColumnRep::kValues:
      own_vals_.push_back(Value::Null(type_));
      return;
  }
  own_nulls_.push_back(1);
}

void ColumnVec::AppendValue(const Value& v) {
  if (rep_ == ColumnRep::kValues) {
    own_vals_.push_back(v);
    return;
  }
  if (v.is_null()) {
    AppendNull();
    return;
  }
  if (v.type() != type_) {
    // First off-type tag: box everything appended so far and continue as
    // kValues, preserving exact tags (Int64(3) stays distinguishable from
    // Double(3.0) the way the row engine sees them).
    DegradeToValues();
    own_vals_.push_back(v);
    return;
  }
  switch (rep_) {
    case ColumnRep::kInts: AppendInt(v.int64_value()); break;
    case ColumnRep::kDoubles: AppendDouble(v.double_value()); break;
    case ColumnRep::kStrings: AppendStr(v.string_value()); break;
    default: break;
  }
}

void ColumnVec::DegradeToValues() {
  const uint32_t n = rep_ == ColumnRep::kStrings
                         ? static_cast<uint32_t>(own_offsets_.size()) - 1
                         : static_cast<uint32_t>(
                               rep_ == ColumnRep::kInts ? own_ints_.size()
                                                        : own_doubles_.size());
  own_vals_.clear();
  own_vals_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (own_nulls_[i] != 0) {
      own_vals_.push_back(Value::Null(type_));
      continue;
    }
    switch (rep_) {
      case ColumnRep::kInts:
        switch (type_) {
          case DataType::kBool:
            own_vals_.push_back(Value::Bool(own_ints_[i] != 0));
            break;
          case DataType::kDate:
            own_vals_.push_back(
                Value::Date(static_cast<int32_t>(own_ints_[i])));
            break;
          default:
            own_vals_.push_back(Value::Int64(own_ints_[i]));
        }
        break;
      case ColumnRep::kDoubles:
        own_vals_.push_back(Value::Double(own_doubles_[i]));
        break;
      case ColumnRep::kStrings: {
        const char* base = own_chars_.data();
        own_vals_.push_back(Value::String(std::string(
            base + own_offsets_[i], own_offsets_[i + 1] - own_offsets_[i])));
        break;
      }
      default: break;
    }
  }
  own_ints_.clear();
  own_doubles_.clear();
  own_chars_.clear();
  own_offsets_.clear();
  own_nulls_.clear();
  rep_ = ColumnRep::kValues;
}

void ColumnVec::Seal() {
  switch (rep_) {
    case ColumnRep::kInts:
      size_ = static_cast<uint32_t>(own_ints_.size());
      ints_ = own_ints_.data();
      break;
    case ColumnRep::kDoubles:
      size_ = static_cast<uint32_t>(own_doubles_.size());
      doubles_ = own_doubles_.data();
      break;
    case ColumnRep::kStrings:
      size_ = static_cast<uint32_t>(own_offsets_.size()) - 1;
      chars_ = own_chars_.data();
      offsets_ = own_offsets_.data();
      break;
    case ColumnRep::kValues:
      size_ = static_cast<uint32_t>(own_vals_.size());
      vals_ = own_vals_.data();
      return;  // kValues carries nulls inline
  }
  nulls_ = any_null_ ? own_nulls_.data() : nullptr;
}

namespace {

/// GatherFrom's fixed-width payload loop: out[k] = load(rows[k]), or a
/// zero payload and a NULL byte where rows[k] is kNullRow or src's row is
/// NULL. Returns whether any NULL was gathered.
template <typename T, typename Load>
bool GatherFixed(const ColumnVec& src, const uint32_t* rows, uint32_t n,
                 std::vector<T>* out, std::vector<uint8_t>* nulls,
                 Load load) {
  out->resize(n);
  nulls->resize(n);
  T* dst = out->data();
  uint8_t* dst_nulls = nulls->data();
  uint8_t any = 0;
  for (uint32_t k = 0; k < n; ++k) {
    const uint32_t r = rows[k];
    const uint8_t null =
        r == ColumnVec::kNullRow || src.IsNull(r) ? uint8_t{1} : uint8_t{0};
    dst_nulls[k] = null;
    any |= null;
    dst[k] = null != 0 ? T{} : load(r);
  }
  return any != 0;
}

}  // namespace

void ColumnVec::GatherFrom(const ColumnVec& src, const uint32_t* rows,
                           uint32_t n) {
  StartBuild(src.type(), n);
  switch (src.rep()) {
    case ColumnRep::kInts: {
      const int64_t* ints = src.ints();
      any_null_ = GatherFixed(src, rows, n, &own_ints_, &own_nulls_,
                              [ints](uint32_t r) { return ints[r]; });
      break;
    }
    case ColumnRep::kDoubles: {
      const double* doubles = src.doubles();
      any_null_ = GatherFixed(src, rows, n, &own_doubles_, &own_nulls_,
                              [doubles](uint32_t r) { return doubles[r]; });
      break;
    }
    case ColumnRep::kStrings:
      for (uint32_t k = 0; k < n; ++k) {
        if (rows[k] == kNullRow || src.IsNull(rows[k])) {
          AppendNull();
        } else {
          AppendStr(src.StrAt(rows[k]));
        }
      }
      break;
    case ColumnRep::kValues:
      for (uint32_t k = 0; k < n; ++k) {
        if (rows[k] == kNullRow) {
          AppendNull();
        } else {
          AppendValue(src.ValAt(rows[k]));
        }
      }
      break;
  }
  Seal();
}

void ColumnVec::PrepareScatter(DataType type, uint32_t n) {
  if (type == DataType::kString) {
    // No random-access arena writes; string results scatter as boxed Values.
    PrepareScatterVals(type, n);
    return;
  }
  ReleaseOwned();
  type_ = type;
  rep_ = RepForType(type);
  size_ = n;
  if (rep_ == ColumnRep::kDoubles) {
    own_doubles_.assign(n, 0.0);
    doubles_ = own_doubles_.data();
  } else {
    own_ints_.assign(n, 0);
    ints_ = own_ints_.data();
  }
  own_nulls_.assign(n, 0);
  nulls_ = own_nulls_.data();
}

void ColumnVec::PrepareScatterVals(DataType type, uint32_t n) {
  ReleaseOwned();
  type_ = type;
  rep_ = ColumnRep::kValues;
  size_ = n;
  own_vals_.assign(n, Value());
  vals_ = own_vals_.data();
}

void ColumnVec::ClearOwned() {
  ReleaseOwned();
}

void ColumnVec::ReleaseOwned() {
  own_ints_.clear();
  own_doubles_.clear();
  own_chars_.clear();
  own_offsets_.clear();
  own_vals_.clear();
  own_nulls_.clear();
  any_null_ = false;
  ints_ = nullptr;
  doubles_ = nullptr;
  chars_ = nullptr;
  offsets_ = nullptr;
  vals_ = nullptr;
  nulls_ = nullptr;
  size_ = 0;
}

std::optional<int> SqlCompareRefs(const ElemRef& a, const ElemRef& b) {
  if (a.null || b.null) return std::nullopt;
  if (IsNumeric(a.type) && IsNumeric(b.type)) {
    if (a.type == DataType::kInt64 && b.type == DataType::kInt64) {
      if (a.i < b.i) return -1;
      if (a.i > b.i) return 1;
      return 0;
    }
    if (a.type == DataType::kInt64) return CompareInt64WithDouble(a.i, b.d);
    if (b.type == DataType::kInt64) return -CompareInt64WithDouble(b.i, a.d);
    return CompareDoubles(a.d, b.d);
  }
  if (a.type != b.type) return std::nullopt;
  switch (a.type) {
    case DataType::kBool:
    case DataType::kDate:
      if (a.i < b.i) return -1;
      if (a.i > b.i) return 1;
      return 0;
    case DataType::kString: {
      int c = a.s.compare(b.s);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return std::nullopt;
  }
}

int TotalCompareRefs(const ElemRef& a, const ElemRef& b) {
  if (a.null && b.null) return 0;
  if (a.null) return -1;
  if (b.null) return 1;
  std::optional<int> c = SqlCompareRefs(a, b);
  if (c.has_value()) return *c;
  return static_cast<int>(a.type) < static_cast<int>(b.type) ? -1 : 1;
}

size_t HashRef(const ElemRef& r) {
  if (r.null) return kNullHash;
  switch (r.type) {
    case DataType::kBool:
    case DataType::kDate:
      return HashDateOrBool(r.i);
    case DataType::kInt64:
      return HashInt64(r.i);
    case DataType::kDouble:
      return HashDouble(r.d);
    case DataType::kString:
      return std::hash<std::string_view>()(r.s);
  }
  return 0;
}

void ColumnBatch::DecodeRow(uint32_t i, Row* out) const {
  out->resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    (*out)[c] = cols_[c].GetValue(i);
  }
}

void ColumnBatch::SetRows(const Row* rows, uint32_t n, size_t width) {
  ResizeCols(width);
  for (size_t c = 0; c < width; ++c) {
    ColumnVec& col = cols_[c];
    col.StartBuild(n > 0 ? rows[0][c].type() : DataType::kInt64, n);
    for (uint32_t i = 0; i < n; ++i) col.AppendValue(rows[i][c]);
    col.Seal();
  }
  ClearSelection();
  num_rows_ = n;
}

}  // namespace orq
