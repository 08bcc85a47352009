#include "exec/column_batch.h"

namespace orq {

namespace {

Status TagMismatch(DataType column, const Value& v) {
  return Status::Internal("a value of type " + DataTypeName(v.type()) +
                          " in a " + DataTypeName(column) + " column");
}

}  // namespace

Value ColumnVec::GetValue(uint32_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  switch (rep_) {
    case ColumnRep::kInts: return IntValue(type_, IntAt(i));
    case ColumnRep::kDoubles:
      return Value::Double(DoubleAt(i));
    case ColumnRep::kStrings:
      return Value::String(std::string(StrAt(i)));
  }
  return Value::Null(type_);
}

void ColumnVec::StartBuild(DataType type, uint32_t reserve) {
  ClearOwned();
  type_ = type;
  rep_ = RepForType(type);
  switch (rep_) {
    case ColumnRep::kInts: own_ints_.reserve(reserve); break;
    case ColumnRep::kDoubles: own_doubles_.reserve(reserve); break;
    case ColumnRep::kStrings:
      own_offsets_.reserve(reserve + 1);
      own_offsets_.push_back(0);
      break;
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
  }
  own_nulls_.push_back(1);
}

Status ColumnVec::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  if (v.type() != type_) return TagMismatch(type_, v);
  switch (rep_) {
    case ColumnRep::kInts: AppendInt(v.int64_value()); break;
    case ColumnRep::kDoubles: AppendDouble(v.double_value()); break;
    case ColumnRep::kStrings: AppendStr(v.string_value()); break;
  }
  return Status::OK();
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
  }
  Seal();
}

void ColumnVec::PrepareScatter(DataType type, uint32_t n) {
  ClearOwned();
  type_ = type;
  rep_ = RepForType(type);
  size_ = n;
  switch (rep_) {
    case ColumnRep::kInts:
      own_ints_.assign(n, 0);
      ints_ = own_ints_.data();
      break;
    case ColumnRep::kDoubles:
      own_doubles_.assign(n, 0.0);
      doubles_ = own_doubles_.data();
      break;
    case ColumnRep::kStrings:
      own_offsets_.assign(n + 1, 0);
      offsets_ = own_offsets_.data();
      chars_ = own_chars_.data();
      break;
  }
  own_nulls_.assign(n, 0);
  nulls_ = own_nulls_.data();
}

void ColumnVec::ScatterStr(uint32_t i, std::string_view s) {
  uint32_t* offsets = own_offsets_.data();
  const uint32_t start = static_cast<uint32_t>(own_chars_.size());
  // Rows skipped since the last write are empty strings.
  for (uint32_t k = scattered_; k < i; ++k) offsets[k + 1] = start;
  own_chars_.append(s.data(), s.size());
  offsets[i + 1] = static_cast<uint32_t>(own_chars_.size());
  scattered_ = i + 1;
  chars_ = own_chars_.data();
}

Status ColumnVec::ScatterValue(uint32_t i, const Value& v) {
  if (v.is_null()) {
    own_nulls_[i] = 1;
    return Status::OK();
  }
  if (v.type() != type_) return TagMismatch(type_, v);
  switch (rep_) {
    case ColumnRep::kInts: own_ints_[i] = v.int64_value(); break;
    case ColumnRep::kDoubles: own_doubles_[i] = v.double_value(); break;
    case ColumnRep::kStrings: ScatterStr(i, v.string_value()); break;
  }
  return Status::OK();
}

void ColumnVec::SetAnyNull(bool any_null) {
  if (rep_ == ColumnRep::kStrings) {
    const uint32_t end = static_cast<uint32_t>(own_chars_.size());
    for (uint32_t k = scattered_; k < size_; ++k) own_offsets_[k + 1] = end;
    scattered_ = size_;
  }
  if (!any_null) nulls_ = nullptr;
}

void ColumnVec::ClearOwned() {
  own_ints_.clear();
  own_doubles_.clear();
  own_chars_.clear();
  own_offsets_.clear();
  own_nulls_.clear();
  any_null_ = false;
  scattered_ = 0;
  ints_ = nullptr;
  doubles_ = nullptr;
  chars_ = nullptr;
  offsets_ = nullptr;
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

void ColumnBatch::DecodeRow(uint32_t i, Row* out) const {
  out->resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    (*out)[c] = cols_[c].GetValue(i);
  }
}

Status ColumnBatch::SetRows(const Row* rows, uint32_t n, size_t width) {
  ResizeCols(width);
  for (size_t c = 0; c < width; ++c) {
    DataType type = n > 0 ? rows[0][c].type() : DataType::kInt64;
    for (uint32_t i = 0; i < n; ++i) {
      if (!rows[i][c].is_null()) {
        type = rows[i][c].type();
        break;
      }
    }
    ColumnVec& col = cols_[c];
    col.StartBuild(type, n);
    for (uint32_t i = 0; i < n; ++i) {
      ORQ_RETURN_IF_ERROR(col.AppendValue(rows[i][c]));
    }
    col.Seal();
  }
  ClearSelection();
  num_rows_ = n;
  return Status::OK();
}

}  // namespace orq
