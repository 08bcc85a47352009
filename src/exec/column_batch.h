#ifndef ORQ_EXEC_COLUMN_BATCH_H_
#define ORQ_EXEC_COLUMN_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace orq {

/// Storage encoding of a ColumnVec view, orthogonal to ColumnRep (which
/// stays the *logical* representation).
///
///   kNone — payload arrays hold one entry per row (the plain layout).
///   kDict — `codes()` holds one uint32 per row indexing the payload
///           arrays, which hold one entry per distinct value; the null
///           mask stays per-row. `dict_hashes()` pre-computes Value::Hash
///           per entry.
///   kRle  — payload arrays and the null mask hold one entry per run;
///           absolute cumulative `run_ends` (minus the view's row base)
///           map rows to runs.
///
/// The typed accessors (IntAt/DoubleAt/StrAt/IsNull/GetValue) decode
/// transparently, so every generic consumer is encoding-correct untouched.
/// Kernels must check is_plain() before indexing the raw arrays per row,
/// and may instead exploit the code/run structure directly.
enum class ColumnEnc : uint8_t { kNone, kDict, kRle };

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
///     AppendValue() degrades the column to kValues on the first value
///     whose tag does not match the declared type, preserving exact tags.
///   * scattered — PrepareScatter() sizes typed storage up front (sealed
///     immediately) and kernels write through MutableInts()/
///     MutableDoubles()/MutableNulls() at selected positions only.
///     Unselected slots hold garbage; they are unreachable through the
///     selection vector.
class ColumnVec {
 public:
  DataType type() const { return type_; }
  ColumnRep rep() const { return rep_; }
  uint32_t size() const { return size_; }

  bool IsNull(uint32_t i) const {
    if (rep_ == ColumnRep::kValues) return vals_[i].is_null();
    if (enc_ == ColumnEnc::kRle) {
      return run_nulls_ != nullptr && run_nulls_[RunOf(i)] != 0;
    }
    return nulls_ != nullptr && nulls_[i] != 0;
  }
  bool has_nulls() const {
    return nulls_ != nullptr || run_nulls_ != nullptr;
  }
  /// Per-row null mask — valid for plain and dict columns only (RLE keeps
  /// nulls per run; use IsNull or run_nulls there).
  const uint8_t* nulls() const { return nulls_; }

  int64_t IntAt(uint32_t i) const {
    return ints_[enc_ == ColumnEnc::kNone ? i : PhysIndex(i)];
  }
  double DoubleAt(uint32_t i) const {
    return doubles_[enc_ == ColumnEnc::kNone ? i : PhysIndex(i)];
  }
  std::string_view StrAt(uint32_t i) const {
    const uint32_t p = enc_ == ColumnEnc::kNone ? i : PhysIndex(i);
    return std::string_view(chars_ + offsets_[p], offsets_[p + 1] - offsets_[p]);
  }
  const Value& ValAt(uint32_t i) const { return vals_[i]; }

  const int64_t* ints() const { return ints_; }
  const double* doubles() const { return doubles_; }
  const char* chars() const { return chars_; }
  const uint32_t* offsets() const { return offsets_; }

  // ---- encoding introspection ----

  ColumnEnc enc() const { return enc_; }
  bool is_plain() const { return enc_ == ColumnEnc::kNone; }
  const uint32_t* codes() const { return codes_; }
  const size_t* dict_hashes() const { return dict_hashes_; }
  uint32_t dict_size() const { return dict_size_; }
  uint32_t num_runs() const { return num_runs_; }
  const uint8_t* run_nulls() const { return run_nulls_; }
  /// Run index of view row i (kRle only). Sequential access is O(1) via a
  /// cached cursor; a backward jump re-seeks by binary search, so the
  /// increasing-order visits every kernel makes stay cheap.
  uint32_t RunOf(uint32_t i) const {
    const uint32_t abs = i + row_base_;
    uint32_t c = run_cursor_;
    if (c >= num_runs_ || (c > 0 && abs < run_ends_[c - 1])) {
      c = static_cast<uint32_t>(
          std::upper_bound(run_ends_, run_ends_ + num_runs_, abs) -
          run_ends_);
    } else {
      while (abs >= run_ends_[c]) ++c;
    }
    run_cursor_ = c;
    return c;
  }
  /// Materializes row i as a Value. NULLs come back as Value::Null(type()):
  /// the original NULL's tag is not preserved, which is benign — NULL
  /// hashing, grouping, comparison, and printing are all tag-independent.
  Value GetValue(uint32_t i) const;

  // ---- views (zero copy) ----

  void SetIntView(DataType type, const int64_t* data, const uint8_t* nulls,
                  uint32_t n) {
    ReleaseOwned();
    type_ = type;
    rep_ = ColumnRep::kInts;
    ints_ = data;
    nulls_ = nulls;
    size_ = n;
  }
  void SetDoubleView(const double* data, const uint8_t* nulls, uint32_t n) {
    ReleaseOwned();
    type_ = DataType::kDouble;
    rep_ = ColumnRep::kDoubles;
    doubles_ = data;
    nulls_ = nulls;
    size_ = n;
  }
  void SetStringView(const char* chars, const uint32_t* offsets,
                     const uint8_t* nulls, uint32_t n) {
    ReleaseOwned();
    type_ = DataType::kString;
    rep_ = ColumnRep::kStrings;
    chars_ = chars;
    offsets_ = offsets;
    nulls_ = nulls;
    size_ = n;
  }
  void SetValuesView(DataType type, const Value* vals, uint32_t n) {
    ReleaseOwned();
    type_ = type;
    rep_ = ColumnRep::kValues;
    vals_ = vals;
    size_ = n;
  }
  /// Dictionary view: codes[0..n) index the dict payload (one entry per
  /// distinct value; `dict_ints` or `dict_chars`+`dict_offsets` by type),
  /// `hashes` pre-computes Value::Hash per entry, `nulls` stays per-row.
  void SetDictView(DataType type, const uint32_t* codes,
                   const int64_t* dict_ints, const char* dict_chars,
                   const uint32_t* dict_offsets, const size_t* hashes,
                   uint32_t dict_size, const uint8_t* nulls, uint32_t n) {
    ReleaseOwned();
    type_ = type;
    rep_ = RepForType(type);
    enc_ = ColumnEnc::kDict;
    codes_ = codes;
    ints_ = dict_ints;
    chars_ = dict_chars;
    offsets_ = dict_offsets;
    dict_hashes_ = hashes;
    dict_size_ = dict_size;
    nulls_ = nulls;
    size_ = n;
  }
  /// Run-length view over rows [row_base, row_base + n) of a chunk whose
  /// `run_ends` are absolute cumulative row counts; the payload arrays
  /// and `run_nulls` hold one entry per run.
  void SetRleView(DataType type, const int64_t* run_ints,
                  const double* run_doubles, const char* run_chars,
                  const uint32_t* run_offsets, const uint32_t* run_ends,
                  const uint8_t* run_nulls, uint32_t num_runs,
                  uint32_t row_base, uint32_t n) {
    ReleaseOwned();
    type_ = type;
    rep_ = RepForType(type);
    enc_ = ColumnEnc::kRle;
    ints_ = run_ints;
    doubles_ = run_doubles;
    chars_ = run_chars;
    offsets_ = run_offsets;
    run_ends_ = run_ends;
    run_nulls_ = run_nulls;
    num_runs_ = num_runs;
    row_base_ = row_base;
    run_cursor_ = static_cast<uint32_t>(
        std::upper_bound(run_ends, run_ends + num_runs, row_base) -
        run_ends);
    size_ = n;
  }
  /// Copies `other`'s view pointers (not its owned storage); `other` must
  /// outlive this column's consumers. This is how projection passes
  /// columns through without touching data.
  void AssignView(const ColumnVec& other) {
    ReleaseOwned();
    type_ = other.type_;
    rep_ = other.rep_;
    enc_ = other.enc_;
    ints_ = other.ints_;
    doubles_ = other.doubles_;
    chars_ = other.chars_;
    offsets_ = other.offsets_;
    vals_ = other.vals_;
    nulls_ = other.nulls_;
    codes_ = other.codes_;
    dict_hashes_ = other.dict_hashes_;
    dict_size_ = other.dict_size_;
    run_ends_ = other.run_ends_;
    run_nulls_ = other.run_nulls_;
    num_runs_ = other.num_runs_;
    row_base_ = other.row_base_;
    run_cursor_ = other.run_cursor_;
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
  /// Appends preserving the value's exact tag; a tag that does not match
  /// the declared type degrades the whole column to kValues.
  void AppendValue(const Value& v);
  /// Points the views at the owned storage. Call once, after the last
  /// append; the column then reads like any other.
  void Seal();
  /// Owned, dense copy of `src` at physical rows rows[0, n), staying in
  /// src's representation (no boxing unless src itself is boxed; encoded
  /// sources decode). A kNullRow entry gathers a NULL of src's type (join
  /// padding). `src` must not be this column.
  void GatherFrom(const ColumnVec& src, const uint32_t* rows, uint32_t n);
  static constexpr uint32_t kNullRow = UINT32_MAX;

  // ---- owned, scattered build (typed kernels) ----

  /// Sizes typed owned storage for n rows (type must not be kString) with
  /// all-zero nulls, and seals immediately: kernels write results through
  /// the Mutable* pointers at whatever positions they like.
  void PrepareScatter(DataType type, uint32_t n);
  /// kValues variant: n default (NULL int64) values, writable in place.
  void PrepareScatterVals(DataType type, uint32_t n);
  int64_t* MutableInts() { return own_ints_.data(); }
  double* MutableDoubles() { return own_doubles_.data(); }
  uint8_t* MutableNulls() { return own_nulls_.data(); }
  Value* MutableVals() { return own_vals_.data(); }
  /// Drops the null mask when the build saw no NULLs (cheap fast path for
  /// downstream kernels). Callers that wrote through MutableNulls() pass
  /// any_null = true; an all-zero mask is correct, just not free.
  void SetAnyNull(bool any_null) {
    if (!any_null && rep_ != ColumnRep::kValues) nulls_ = nullptr;
  }

  /// Resets to an empty owned column, keeping storage capacity.
  void ClearOwned();

 private:
  void ReleaseOwned();
  void DegradeToValues();

  /// Payload index of view row i under an encoded layout.
  uint32_t PhysIndex(uint32_t i) const {
    return enc_ == ColumnEnc::kDict ? codes_[i] : RunOf(i);
  }

  DataType type_ = DataType::kInt64;
  ColumnRep rep_ = ColumnRep::kInts;
  ColumnEnc enc_ = ColumnEnc::kNone;
  uint32_t size_ = 0;

  const int64_t* ints_ = nullptr;
  const double* doubles_ = nullptr;
  const char* chars_ = nullptr;
  const uint32_t* offsets_ = nullptr;
  const Value* vals_ = nullptr;
  const uint8_t* nulls_ = nullptr;
  const uint32_t* codes_ = nullptr;       // kDict: one per row
  const size_t* dict_hashes_ = nullptr;   // kDict: one per entry
  uint32_t dict_size_ = 0;
  const uint32_t* run_ends_ = nullptr;    // kRle: cumulative, absolute
  const uint8_t* run_nulls_ = nullptr;    // kRle: one per run
  uint32_t num_runs_ = 0;
  uint32_t row_base_ = 0;
  /// Monotone run cursor for RunOf; mutable because lookup is logically
  /// const (columnar execution is single-threaded per batch).
  mutable uint32_t run_cursor_ = 0;

  std::vector<int64_t> own_ints_;
  std::vector<double> own_doubles_;
  std::string own_chars_;
  std::vector<uint32_t> own_offsets_;  // n + 1 once sealed
  std::vector<Value> own_vals_;
  std::vector<uint8_t> own_nulls_;
  bool any_null_ = false;
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
  /// `width` owned columns holding rows[0, n), dense. Column types follow
  /// the first row's value tags; a later tag mismatch degrades that column
  /// to boxed values, so a wrong guess costs speed, never correctness.
  void SetRows(const Row* rows, uint32_t n, size_t width);

 private:
  int capacity_;
  std::vector<ColumnVec> cols_;
  uint32_t num_rows_ = 0;
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

/// A decoded element: the tag/payload of one column entry (or one Value)
/// without boxing — strings stay views. The Ref helpers below reproduce
/// Value::SqlCompare / TotalCompare / GroupEquals / Hash exactly, so
/// columnar kernels and row-engine hash tables interoperate: a key hashed
/// column-wise finds the KeyTable entry a Row-keyed insert made.
struct ElemRef {
  DataType type;
  bool null;
  int64_t i = 0;
  double d = 0.0;
  std::string_view s;
};

inline ElemRef LoadElem(const ColumnVec& c, uint32_t idx);

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
  if (c.rep() == ColumnRep::kValues) return LoadValue(c.ValAt(idx));
  ElemRef r;
  r.type = c.type();
  r.null = c.IsNull(idx);
  if (r.null) return r;
  switch (c.rep()) {
    case ColumnRep::kInts: r.i = c.IntAt(idx); break;
    case ColumnRep::kDoubles: r.d = c.DoubleAt(idx); break;
    case ColumnRep::kStrings: r.s = c.StrAt(idx); break;
    default: break;
  }
  return r;
}

/// Ref of dictionary entry `code` of a kDict column. Entries are never
/// null (NULL rows live in the per-row mask and intern the zero value).
inline ElemRef DictEntryRef(const ColumnVec& c, uint32_t code) {
  ElemRef r;
  r.type = c.type();
  r.null = false;
  switch (c.rep()) {
    case ColumnRep::kInts: r.i = c.ints()[code]; break;
    case ColumnRep::kDoubles: r.d = c.doubles()[code]; break;
    case ColumnRep::kStrings:
      r.s = std::string_view(c.chars() + c.offsets()[code],
                             c.offsets()[code + 1] - c.offsets()[code]);
      break;
    default: break;
  }
  return r;
}

/// Ref of run `run` of a kRle column (the value every row of the run
/// shares).
inline ElemRef RleRunRef(const ColumnVec& c, uint32_t run) {
  ElemRef r;
  r.type = c.type();
  r.null = c.run_nulls() != nullptr && c.run_nulls()[run] != 0;
  if (r.null) return r;
  switch (c.rep()) {
    case ColumnRep::kInts: r.i = c.ints()[run]; break;
    case ColumnRep::kDoubles: r.d = c.doubles()[run]; break;
    case ColumnRep::kStrings:
      r.s = std::string_view(c.chars() + c.offsets()[run],
                             c.offsets()[run + 1] - c.offsets()[run]);
      break;
    default: break;
  }
  return r;
}

/// Value::SqlCompare over refs: nullopt on NULL or incomparable types.
std::optional<int> SqlCompareRefs(const ElemRef& a, const ElemRef& b);
/// Value::TotalCompare over refs: NULL first, mixed types by type tag.
int TotalCompareRefs(const ElemRef& a, const ElemRef& b);
inline bool GroupEqualsRefs(const ElemRef& a, const ElemRef& b) {
  return TotalCompareRefs(a, b) == 0;
}
/// Value::Hash over refs (string_view hashes like std::string by the
/// [string.view.hash] guarantee).
size_t HashRef(const ElemRef& r);

}  // namespace orq

#endif  // ORQ_EXEC_COLUMN_BATCH_H_
