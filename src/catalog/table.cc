#include "catalog/table.h"

#include <algorithm>

#include "catalog/index.h"
#include "common/str_util.h"

namespace orq {

Table::Table(std::string name, std::vector<ColumnSpec> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  chunks_.resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    chunks_[c].Clear(columns_[c].type);
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
  // Check the whole row first, so a rejected row writes nothing.
  for (size_t c = 0; c < row.size(); ++c) {
    Value& v = row[c];
    const DataType type = columns_[c].type;
    if (v.is_null() && !columns_[c].nullable) {
      return Status::InvalidArgument("NULL for NOT NULL column " +
                                     columns_[c].name + " of table " + name_);
    }
    if (v.is_null() || v.type() == type) {
      if (type == DataType::kString && !v.is_null() &&
          chunks_[c].ArenaBytes() + v.string_value().size() > UINT32_MAX) {
        return Status::InvalidArgument("column " + columns_[c].name +
                                       " of table " + name_ +
                                       " outgrew its 4 GiB string arena");
      }
      continue;
    }
    if (v.type() == DataType::kInt64 && type == DataType::kDouble) {
      v = Value::Double(static_cast<double>(v.int64_value()));
      continue;
    }
    return Status::InvalidArgument(
        "a value of type " + DataTypeName(v.type()) + " for " +
        DataTypeName(type) + " column " + columns_[c].name +
        " of table " + name_);
  }
  for (size_t c = 0; c < row.size(); ++c) chunks_[c].AppendValue(row[c]);
  ++num_rows_;
  return Status::OK();
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
