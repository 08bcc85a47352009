#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

namespace orq {

std::string DataTypeName(DataType type) {
  switch (type) {
    case DataType::kBool: return "bool";
    case DataType::kInt64: return "int64";
    case DataType::kDouble: return "double";
    case DataType::kString: return "string";
    case DataType::kDate: return "date";
  }
  return "?";
}

std::optional<int> Value::SqlCompare(const Value& other) const {
  if (null_ || other.null_) return std::nullopt;
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    if (type_ == DataType::kInt64 && other.type_ == DataType::kInt64) {
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    }
    if (type_ == DataType::kInt64) {
      return CompareInt64WithDouble(int_, other.double_);
    }
    if (other.type_ == DataType::kInt64) {
      return -CompareInt64WithDouble(other.int_, double_);
    }
    return CompareDoubles(double_, other.double_);
  }
  // Non-numeric comparisons require identical types.
  if (type_ != other.type_) return std::nullopt;
  switch (type_) {
    case DataType::kBool:
    case DataType::kDate:
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    case DataType::kString: {
      int c = string_.compare(other.string_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return std::nullopt;
  }
}

int Value::TotalCompare(const Value& other) const {
  if (null_ && other.null_) return 0;
  if (null_) return -1;
  if (other.null_) return 1;
  std::optional<int> c = SqlCompare(other);
  if (c.has_value()) return *c;
  // Mixed incomparable types: order by type tag to keep the order total.
  return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
}

size_t Value::Hash() const {
  if (null_) return kNullHash;  // all NULLs hash alike (group semantics)
  switch (type_) {
    case DataType::kBool:
    case DataType::kDate:
      return HashDateOrBool(int_);
    case DataType::kInt64:
      return HashInt64(int_);
    case DataType::kDouble:
      return HashDouble(double_);
    case DataType::kString:
      return std::hash<std::string>()(string_);
  }
  return 0;
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case DataType::kBool: return int_ ? "true" : "false";
    case DataType::kInt64: return std::to_string(int_);
    case DataType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", double_);
      return buf;
    }
    case DataType::kString: return string_;
    case DataType::kDate: return FormatDate(static_cast<int32_t>(int_));
  }
  return "?";
}

namespace {

bool IsLeapYear(int y) {
  return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
}

const int kDaysInMonth[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

int DaysInMonth(int y, int m) {
  if (m == 2 && IsLeapYear(y)) return 29;
  return kDaysInMonth[m - 1];
}

}  // namespace

std::optional<int32_t> ParseDate(const std::string& text) {
  int y = 0, m = 0, d = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d", &y, &m, &d) != 3) {
    return std::nullopt;
  }
  if (m < 1 || m > 12 || d < 1 || d > DaysInMonth(y, m)) return std::nullopt;
  // Count days from 1970-01-01.
  int32_t days = 0;
  if (y >= 1970) {
    for (int yy = 1970; yy < y; ++yy) days += IsLeapYear(yy) ? 366 : 365;
  } else {
    for (int yy = y; yy < 1970; ++yy) days -= IsLeapYear(yy) ? 366 : 365;
  }
  for (int mm = 1; mm < m; ++mm) days += DaysInMonth(y, mm);
  days += d - 1;
  return days;
}

std::string FormatDate(int32_t days) {
  int y = 1970;
  while (true) {
    int len = IsLeapYear(y) ? 366 : 365;
    if (days >= len) {
      days -= len;
      ++y;
    } else if (days < 0) {
      --y;
      days += IsLeapYear(y) ? 366 : 365;
    } else {
      break;
    }
  }
  int m = 1;
  while (days >= DaysInMonth(y, m)) {
    days -= DaysInMonth(y, m);
    ++m;
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, days + 1);
  return buf;
}

std::string RowToString(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace orq
