#include "catalog/table.h"

#include <algorithm>

#include "catalog/index.h"
#include "common/str_util.h"

namespace orq {

namespace {

/// Boxes the `n` rows a typed chunk holds (decoded, so NULLs become
/// Value::Null(type)) and drops the typed arrays; the chunk continues boxed.
void BoxChunk(Table::ColumnChunk* c, size_t n) {
  Table::ColumnChunk boxed;
  boxed.type = c->type;
  boxed.mixed = true;
  for (size_t i = 0; i < n; ++i) boxed.vals.push_back(c->GetValue(i));
  *c = std::move(boxed);
}

/// Writes value `v` as row `row` of a plain chunk. A value whose tag
/// disagrees with the declared type, or a string that would push the arena
/// past uint32 offsets, boxes the chunk first.
void AppendCell(Table::ColumnChunk* c, size_t row, Value v) {
  if (!c->mixed && !v.is_null() &&
      (v.type() != c->type ||
       (c->type == DataType::kString &&
        c->chars.size() + v.string_value().size() >
            static_cast<size_t>(UINT32_MAX)))) {
    BoxChunk(c, row);
  }
  if (c->mixed) {
    c->vals.push_back(v.is_null() ? Value::Null(c->type) : std::move(v));
    return;
  }
  c->nulls.push_back(v.is_null() ? 1 : 0);
  c->any_null |= v.is_null();
  switch (c->type) {
    case DataType::kString:
      if (!v.is_null()) c->chars.append(v.string_value());
      c->offsets.push_back(static_cast<uint32_t>(c->chars.size()));
      break;
    case DataType::kDouble:
      c->doubles.push_back(v.is_null() ? 0.0 : v.double_value());
      break;
    default:
      // bool / int64 / date all carry their payload in the int64 slot.
      c->ints.push_back(v.is_null() ? 0 : v.int64_value());
      break;
  }
}

}  // namespace

Table::Table(std::string name, std::vector<ColumnSpec> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  chunks_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    chunks_[c].type = columns_[c].type;
    if (chunks_[c].type == DataType::kString) chunks_[c].offsets.push_back(0);
  }
}

int Table::ColumnOrdinal(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return static_cast<int>(i);
  }
  return -1;
}

Status Table::Append(Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity " + std::to_string(row.size()) +
                                   " does not match table " + name_);
  }
  for (size_t c = 0; c < row.size(); ++c) {
    AppendCell(&chunks_[c], num_rows_, std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Value Table::ColumnChunk::GetValue(size_t row) const {
  if (mixed) return vals[row];
  if (nulls[row] != 0) return Value::Null(type);
  switch (type) {
    case DataType::kBool: return Value::Bool(ints[row] != 0);
    case DataType::kDate: return Value::Date(static_cast<int32_t>(ints[row]));
    case DataType::kDouble: return Value::Double(doubles[row]);
    case DataType::kString:
      return Value::String(std::string(chars.data() + offsets[row],
                                       offsets[row + 1] - offsets[row]));
    default: return Value::Int64(ints[row]);
  }
}

void Table::BuildIndex(std::vector<int> ordinals) {
  indexes_.push_back(std::make_unique<TableIndex>(*this, std::move(ordinals)));
}

const TableIndex* Table::FindIndex(const std::vector<int>& ordinals) const {
  std::vector<int> want = ordinals;
  std::sort(want.begin(), want.end());
  for (const auto& idx : indexes_) {
    std::vector<int> have = idx->ordinals();
    std::sort(have.begin(), have.end());
    if (have == want) return idx.get();
  }
  return nullptr;
}

}  // namespace orq
