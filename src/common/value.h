#ifndef ORQ_COMMON_VALUE_H_
#define ORQ_COMMON_VALUE_H_

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace orq {

/// Scalar column types supported by the engine. Dates are stored as days
/// since 1970-01-01 (int32) — sufficient for TPC-H date arithmetic.
enum class DataType : uint8_t {
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,
};

std::string DataTypeName(DataType type);

/// Exact int64-vs-double comparison. Promoting the int64 to double (the
/// obvious implementation) is lossy above 2^53: it made Int64(2^53 + 1)
/// compare equal to Double(2^53) while the two hashed differently, an
/// equality/hash inconsistency that corrupts hash-join and GroupBy tables.
/// NaN sorts above every numeric so the order stays total. Inline (and
/// public) so the columnar compare kernels reproduce Value::SqlCompare
/// exactly without a per-element call.
inline int CompareInt64WithDouble(int64_t i, double d) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exactly
  if (std::isnan(d)) return -1;
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  // In-range: truncation is exact, and the truncated value converts back
  // to double exactly (either |d| < 2^53, or d is integral already).
  int64_t t = static_cast<int64_t>(d);
  if (i != t) return i < t ? -1 : 1;
  double frac = d - static_cast<double>(t);
  if (frac > 0.0) return -1;
  if (frac < 0.0) return 1;
  return 0;
}

/// SqlCompare's double ordering: NaN above everything, NaNs equal,
/// -0.0 == 0.0.
inline int CompareDoubles(double a, double b) {
  bool a_nan = std::isnan(a), b_nan = std::isnan(b);
  if (a_nan || b_nan) {
    if (a_nan && b_nan) return 0;
    return a_nan ? 1 : -1;
  }
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;  // covers -0.0 == 0.0
}

/// Element hashes behind Value::Hash, inline so that column-wise hashing
/// (HashCombineColumn's typed loops) and Value::Hash are one definition.
/// Consistent with GroupEquals: Int64(3) and Double(3.0) hash alike,
/// -0.0 like 0.0, every NaN alike, every NULL alike.
inline constexpr size_t kNullHash = 0x6e756c6cull;
inline constexpr size_t kNanHash = 0x7fff8e8eull;

/// MurmurHash3's 64-bit finalizer: a bijective bit mixer.
inline size_t MixHash64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return static_cast<size_t>(x);
}

/// Hash of a non-NULL double: the mixed bit pattern, after folding -0.0
/// into 0.0 and every NaN payload into one value.
inline size_t HashDouble(double d) {
  if (d == 0.0) return MixHash64(0);
  if (std::isnan(d)) return kNanHash;
  return MixHash64(std::bit_cast<uint64_t>(d));
}

/// Hash of a non-NULL int64: through double when the value is exactly
/// representable, so it hashes like the double it GroupEquals. A value
/// that is not (|i| > 2^53 and not a multiple of the spacing there)
/// equals no double, so it hashes as itself. The range guard matters: for
/// values near INT64_MAX the round-trip cast is out of range, i.e.
/// undefined behavior, not just inexact.
inline size_t HashInt64(int64_t i) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  if (i >= -kTwo53 && i <= kTwo53) return HashDouble(static_cast<double>(i));
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exactly
  const double d = static_cast<double>(i);
  if (d >= -kTwo63 && d < kTwo63 && static_cast<int64_t>(d) == i) {
    return HashDouble(d);
  }
  return static_cast<size_t>(i);
}

/// Hash of a non-NULL date or bool payload: the identity (KeyTable mixes
/// the bits before placing a key, so dense dates do not cluster).
inline size_t HashDateOrBool(int64_t v) { return static_cast<size_t>(v); }

/// Returns true if the type participates in numeric arithmetic/promotion.
inline bool IsNumeric(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

/// True when two non-NULL values of these types compare to TRUE or FALSE:
/// a numeric pair, or two values of one type. Any other pair is in
/// different comparison classes and compares UNKNOWN (Value::SqlCompare).
inline bool Comparable(DataType a, DataType b) {
  return (IsNumeric(a) && IsNumeric(b)) || a == b;
}

/// Physical representation of a column of values (a ColumnBatch column,
/// a KeyTable key column). Every non-NULL value of a column carries the
/// column's declared type, so the type alone picks the representation.
///
///   kInts     — bool / int64 / date, one int64 per row.
///   kDoubles  — double, one double per row.
///   kStrings  — offset + arena: offsets[i]..offsets[i+1] into `chars`
///               (n + 1 offsets, monotone; absolute, so a view may start
///               at any row of a larger arena).
enum class ColumnRep : uint8_t { kInts, kDoubles, kStrings };

/// The typed representation a column of `type` uses.
inline ColumnRep RepForType(DataType type) {
  switch (type) {
    case DataType::kDouble: return ColumnRep::kDoubles;
    case DataType::kString: return ColumnRep::kStrings;
    default: return ColumnRep::kInts;
  }
}

/// A nullable SQL scalar value: a type tag, a null flag, and storage.
///
/// Comparison helpers come in two flavors:
///   * SqlCompare — SQL semantics: NULL compared to anything is "unknown"
///     (represented as std::nullopt).
///   * TotalCompare — a total order used for sorting and grouping, where
///     NULL sorts first and two NULLs are equal (GROUP BY / DISTINCT
///     semantics).
class Value {
 public:
  /// A NULL of the given type.
  static Value Null(DataType type = DataType::kInt64) {
    Value v;
    v.type_ = type;
    v.null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = DataType::kBool;
    v.null_ = false;
    v.int_ = b ? 1 : 0;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = DataType::kInt64;
    v.null_ = false;
    v.int_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = DataType::kDouble;
    v.null_ = false;
    v.double_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = DataType::kString;
    v.null_ = false;
    v.string_ = std::move(s);
    return v;
  }
  /// A date from days since the 1970-01-01 epoch.
  static Value Date(int32_t days) {
    Value v;
    v.type_ = DataType::kDate;
    v.null_ = false;
    v.int_ = days;
    return v;
  }

  Value() : type_(DataType::kInt64), null_(true) {}

  DataType type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return int_ != 0; }
  int64_t int64_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& string_value() const { return string_; }
  int32_t date_value() const { return static_cast<int32_t>(int_); }

  /// Numeric value as double (int64 promoted); callers must check type.
  double AsDouble() const {
    return type_ == DataType::kDouble ? double_ : static_cast<double>(int_);
  }

  /// SQL comparison: nullopt when either side is NULL, otherwise <0/0/>0.
  /// Numeric types compare after promotion; other types must match.
  std::optional<int> SqlCompare(const Value& other) const;

  /// Total order for sort/group: NULL < everything, NULL == NULL.
  int TotalCompare(const Value& other) const;

  /// Equality under grouping semantics (NULLs equal). Used by hash tables.
  bool GroupEquals(const Value& other) const {
    return TotalCompare(other) == 0;
  }

  /// Hash consistent with GroupEquals.
  size_t Hash() const;

  std::string ToString() const;

 private:
  DataType type_;
  bool null_;
  int64_t int_ = 0;       // kBool/kInt64/kDate payload
  double double_ = 0.0;   // kDouble payload
  std::string string_;    // kString payload
};

/// The bool, int64 or date `type` value whose int64 payload is `v` (the
/// kInts representation's decode).
inline Value IntValue(DataType type, int64_t v) {
  switch (type) {
    case DataType::kBool: return Value::Bool(v != 0);
    case DataType::kDate: return Value::Date(static_cast<int32_t>(v));
    default: return Value::Int64(v);
  }
}

/// Rows are flat vectors of values; operators address them positionally.
using Row = std::vector<Value>;

/// Hash/equality functors for Row keys under grouping semantics.
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (const Value& v : row) h = h * 1099511628211ull + v.Hash();
    return h;
  }
};
struct RowGroupEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i].GroupEquals(b[i])) return false;
    }
    return true;
  }
};

/// Parses "YYYY-MM-DD" into days since epoch; nullopt on malformed input.
std::optional<int32_t> ParseDate(const std::string& text);
/// Formats days since epoch as "YYYY-MM-DD".
std::string FormatDate(int32_t days);

std::string RowToString(const Row& row);

}  // namespace orq

#endif  // ORQ_COMMON_VALUE_H_
