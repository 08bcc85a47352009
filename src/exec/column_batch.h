#ifndef ORQ_EXEC_COLUMN_BATCH_H_
#define ORQ_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace orq {

/// One column of a ColumnBatch: a typed array view plus an optional null
/// mask (one byte per row, non-zero = NULL; no mask means no NULLs).
///
/// A ColumnVec is either a *view* over storage someone else owns (a table
/// column chunk, another batch's column) or *owned*, backed by the own_*
/// members. Views are how scans and pass-through projection stay
/// zero-copy. All indices are physical row positions in [0, size()); the
/// batch-level selection vector decides which positions are live.
///
/// Owned columns are built one of two ways:
///   * sequentially — StartBuild() then Append*() per row, Seal() last.
///     Used by the row→column transpose adapter and join output gather.
///   * scattered — PrepareScatter() sizes typed storage up front (sealed
///     immediately) and kernels write through MutableInts()/
///     MutableDoubles()/MutableNulls() or ScatterStr()/ScatterValue() at
///     selected positions only. Unselected fixed-width slots hold
///     garbage; they are unreachable through the selection vector.
///
/// Every non-NULL value of a column has the column's type: a value of
/// another type is an error (AppendValue/ScatterValue).
class ColumnVec {
 public:
  DataType type() const { return type_; }
  ColumnRep rep() const { return rep_; }
  uint32_t size() const { return size_; }

  bool IsNull(uint32_t i) const { return nulls_ != nullptr && nulls_[i] != 0; }
  bool has_nulls() const { return nulls_ != nullptr; }
  /// Per-row null mask, or nullptr when the column has no NULLs.
  const uint8_t* nulls() const { return nulls_; }

  int64_t IntAt(uint32_t i) const { return ints_[i]; }
  double DoubleAt(uint32_t i) const { return doubles_[i]; }
  std::string_view StrAt(uint32_t i) const {
    return std::string_view(chars_ + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  const int64_t* ints() const { return ints_; }
  const double* doubles() const { return doubles_; }
  const char* chars() const { return chars_; }
  const uint32_t* offsets() const { return offsets_; }

  /// Materializes row i as a Value. NULLs come back as Value::Null(type()):
  /// the original NULL's tag is not preserved, which is benign — NULL
  /// hashing, grouping, comparison, and printing are all tag-independent.
  Value GetValue(uint32_t i) const;

  // ---- views (zero copy) ----

  void SetIntView(DataType type, const int64_t* data, const uint8_t* nulls,
                  uint32_t n) {
    ClearOwned();
    type_ = type;
    rep_ = ColumnRep::kInts;
    ints_ = data;
    nulls_ = nulls;
    size_ = n;
  }
  void SetDoubleView(const double* data, const uint8_t* nulls, uint32_t n) {
    ClearOwned();
    type_ = DataType::kDouble;
    rep_ = ColumnRep::kDoubles;
    doubles_ = data;
    nulls_ = nulls;
    size_ = n;
  }
  void SetStringView(const char* chars, const uint32_t* offsets,
                     const uint8_t* nulls, uint32_t n) {
    ClearOwned();
    type_ = DataType::kString;
    rep_ = ColumnRep::kStrings;
    chars_ = chars;
    offsets_ = offsets;
    nulls_ = nulls;
    size_ = n;
  }
  /// Copies `other`'s view pointers (not its owned storage); `other` must
  /// outlive this column's consumers. This is how projection passes
  /// columns through without touching data.
  void AssignView(const ColumnVec& other) {
    ClearOwned();
    type_ = other.type_;
    rep_ = other.rep_;
    ints_ = other.ints_;
    doubles_ = other.doubles_;
    chars_ = other.chars_;
    offsets_ = other.offsets_;
    nulls_ = other.nulls_;
    size_ = other.size_;
  }

  // ---- owned, sequential build ----

  void StartBuild(DataType type, uint32_t reserve);
  void AppendInt(int64_t v) {
    own_ints_.push_back(v);
    own_nulls_.push_back(0);
  }
  void AppendDouble(double v) {
    own_doubles_.push_back(v);
    own_nulls_.push_back(0);
  }
  void AppendStr(std::string_view sv) {
    own_chars_.append(sv.data(), sv.size());
    own_offsets_.push_back(static_cast<uint32_t>(own_chars_.size()));
    own_nulls_.push_back(0);
  }
  void AppendNull();
  /// Appends `v`: a NULL, or a value of the column's type. A value of
  /// another type appends nothing and returns Internal.
  Status AppendValue(const Value& v);
  /// Points the views at the owned storage. Call once, after the last
  /// append; the column then reads like any other.
  void Seal();
  /// Owned, dense copy of `src` at physical rows rows[0, n), in src's
  /// representation. A kNullRow entry gathers a NULL of src's type (join
  /// padding). `src` must not be this column.
  void GatherFrom(const ColumnVec& src, const uint32_t* rows, uint32_t n);
  static constexpr uint32_t kNullRow = UINT32_MAX;

  // ---- owned, scattered build (typed kernels) ----

  /// Sizes owned storage for n rows with all-zero nulls, and seals
  /// immediately: kernels write fixed-width results through the Mutable*
  /// pointers at whatever positions they like. A string column's arena
  /// grows in selection order instead: ScatterStr writes rows in strictly
  /// increasing position, and the rows it skips read as empty strings.
  void PrepareScatter(DataType type, uint32_t n);
  int64_t* MutableInts() { return own_ints_.data(); }
  double* MutableDoubles() { return own_doubles_.data(); }
  uint8_t* MutableNulls() { return own_nulls_.data(); }
  /// Writes string row i of a string scatter; i is past every row written
  /// before.
  void ScatterStr(uint32_t i, std::string_view s);
  /// Writes `v` at row i of a scatter: a NULL sets the null byte, any
  /// other value must carry the column's type (Internal otherwise).
  /// String rows go in increasing position, as for ScatterStr.
  Status ScatterValue(uint32_t i, const Value& v);
  /// Ends a scatter: drops the null mask when the build saw no NULLs
  /// (cheap fast path for downstream kernels), and closes a string
  /// column's arena. Callers that wrote through MutableNulls() pass
  /// any_null = true; an all-zero mask is correct, just not free.
  void SetAnyNull(bool any_null);

  /// Resets to an empty owned column, keeping storage capacity.
  void ClearOwned();

 private:

  DataType type_ = DataType::kInt64;
  ColumnRep rep_ = ColumnRep::kInts;
  uint32_t size_ = 0;

  const int64_t* ints_ = nullptr;
  const double* doubles_ = nullptr;
  const char* chars_ = nullptr;
  const uint32_t* offsets_ = nullptr;
  const uint8_t* nulls_ = nullptr;

  std::vector<int64_t> own_ints_;
  std::vector<double> own_doubles_;
  std::string own_chars_;
  std::vector<uint32_t> own_offsets_;  // n + 1 once sealed
  std::vector<uint8_t> own_nulls_;
  bool any_null_ = false;
  uint32_t scattered_ = 0;  // string scatter: rows whose end offset is set
};

/// A column-major (SoA) batch: one ColumnVec per output column, a physical
/// row count, and an optional selection vector. When the selection vector
/// is present it lists the live physical rows in strictly increasing
/// order; Filter narrows it instead of copying survivors. Without one the
/// batch is dense: all num_rows() rows are live.
///
/// Contract: an operator's NextColumns fills a cleared batch; selected() ==
/// 0 on return means end of stream (operators never return a
/// fully-filtered batch while input remains — they keep pulling).
class ColumnBatch {
 public:
  explicit ColumnBatch(int capacity = 1024)
      : capacity_(capacity > 0 ? capacity : 1) {}

  int capacity() const { return capacity_; }

  size_t num_cols() const { return cols_.size(); }
  ColumnVec& col(size_t i) { return cols_[i]; }
  const ColumnVec& col(size_t i) const { return cols_[i]; }
  /// Grows/shrinks the column list (existing columns keep their storage).
  void ResizeCols(size_t n) { cols_.resize(n); }

  uint32_t num_rows() const { return num_rows_; }
  void set_num_rows(uint32_t n) { num_rows_ = n; }

  bool has_selection() const { return has_sel_; }
  const std::vector<uint32_t>& selection() const { return sel_; }
  /// Installs a selection vector (must be strictly increasing physical
  /// row indices < num_rows()).
  std::vector<uint32_t>* MutableSelection() {
    has_sel_ = true;
    return &sel_;
  }
  void ClearSelection() {
    has_sel_ = false;
    sel_.clear();
  }

  /// Live rows: selection size when present, else the physical count.
  uint32_t selected() const {
    return has_sel_ ? static_cast<uint32_t>(sel_.size()) : num_rows_;
  }
  /// Physical index of the j-th live row.
  uint32_t RowAt(uint32_t j) const { return has_sel_ ? sel_[j] : j; }

  /// Empties the batch for refill; keeps column storage for reuse.
  void Clear() {
    num_rows_ = 0;
    ClearSelection();
    for (ColumnVec& c : cols_) c.ClearOwned();
  }

  /// Materializes physical row i into `out` (resized to num_cols()).
  void DecodeRow(uint32_t i, Row* out) const;
  /// The inverse of DecodeRow over a run of rows: refills the batch with
  /// `width` owned columns holding rows[0, n), dense. A column's type is
  /// the tag of its first non-NULL value; a later value of another tag is
  /// an Internal error (the binder gives every column one type).
  Status SetRows(const Row* rows, uint32_t n, size_t width);

 private:
  int capacity_;
  std::vector<ColumnVec> cols_;
  uint32_t num_rows_ = 0;
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

/// A decoded element: the tag/payload of one column entry (or one Value)
/// without boxing — strings stay views. The Ref helpers below reproduce
/// Value::SqlCompare / TotalCompare exactly (aggregation's MIN/MAX).
struct ElemRef {
  DataType type;
  bool null;
  int64_t i = 0;
  double d = 0.0;
  std::string_view s;
};

inline ElemRef LoadValue(const Value& v) {
  ElemRef r;
  r.type = v.type();
  r.null = v.is_null();
  if (r.null) return r;
  switch (v.type()) {
    case DataType::kDouble: r.d = v.double_value(); break;
    case DataType::kString: r.s = v.string_value(); break;
    default: r.i = v.int64_value(); break;
  }
  return r;
}

inline ElemRef LoadElem(const ColumnVec& c, uint32_t idx) {
  ElemRef r;
  r.type = c.type();
  r.null = c.IsNull(idx);
  if (r.null) return r;
  switch (c.rep()) {
    case ColumnRep::kInts: r.i = c.IntAt(idx); break;
    case ColumnRep::kDoubles: r.d = c.DoubleAt(idx); break;
    case ColumnRep::kStrings: r.s = c.StrAt(idx); break;
  }
  return r;
}

/// Value::SqlCompare over refs: nullopt on NULL or incomparable types.
std::optional<int> SqlCompareRefs(const ElemRef& a, const ElemRef& b);
/// Value::TotalCompare over refs: NULL first, mixed types by type tag.
int TotalCompareRefs(const ElemRef& a, const ElemRef& b);

}  // namespace orq

#endif  // ORQ_EXEC_COLUMN_BATCH_H_
