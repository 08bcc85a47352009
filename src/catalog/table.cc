#include "catalog/table.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "catalog/index.h"
#include "common/str_util.h"

namespace orq {

namespace {

/// Exact-representation cell equality on a plain chunk — the run test for
/// RLE. Deliberately NOT GroupEquals: -0.0 and 0.0 (or two different NaN
/// payloads) group-equal but must not merge into one run, because decode
/// has to reproduce the original bytes for result parity.
bool SameCell(const Table::ColumnChunk& c, size_t i, size_t j) {
  const bool ni = c.nulls[i] != 0;
  const bool nj = c.nulls[j] != 0;
  if (ni || nj) return ni && nj;
  switch (c.type) {
    case DataType::kString: {
      const size_t bi = c.offsets[i], ei = c.offsets[i + 1];
      const size_t bj = c.offsets[j], ej = c.offsets[j + 1];
      if (ei - bi != ej - bj) return false;
      return std::memcmp(c.chars.data() + bi, c.chars.data() + bj,
                         ei - bi) == 0;
    }
    case DataType::kDouble:
      return std::memcmp(&c.doubles[i], &c.doubles[j], sizeof(double)) == 0;
    default:
      return c.ints[i] == c.ints[j];
  }
}

size_t CountRuns(const Table::ColumnChunk& c, size_t n) {
  size_t runs = n > 0 ? 1 : 0;
  for (size_t i = 1; i < n; ++i) {
    if (!SameCell(c, i, i - 1)) ++runs;
  }
  return runs;
}

/// Rewrites a plain string/int64 chunk into dictionary form: one uint32
/// code per row indexing a first-appearance-ordered entry table, plus a
/// pre-computed Value::Hash per entry. NULL rows intern the zero value so
/// every code stays a valid index (nulls[] remains the truth). Returns
/// false (chunk untouched) when the entry count would exceed
/// `max_entries`.
bool EncodeDict(Table::ColumnChunk* c, size_t n, size_t max_entries) {
  std::vector<uint32_t> codes(n);
  if (c->type == DataType::kString) {
    std::unordered_map<std::string_view, uint32_t> intern;
    std::vector<std::string_view> entries;
    for (size_t i = 0; i < n; ++i) {
      std::string_view s(c->chars.data() + c->offsets[i],
                         c->offsets[i + 1] - c->offsets[i]);
      if (c->nulls[i] != 0) s = std::string_view();
      auto [it, added] = intern.emplace(s, entries.size());
      if (added) {
        if (entries.size() >= max_entries) return false;
        entries.push_back(s);
      }
      codes[i] = it->second;
    }
    std::string dict_chars;
    std::vector<uint32_t> dict_offsets;
    dict_offsets.reserve(entries.size() + 1);
    dict_offsets.push_back(0);
    std::vector<size_t> hashes;
    hashes.reserve(entries.size());
    for (std::string_view s : entries) {
      dict_chars.append(s);
      dict_offsets.push_back(static_cast<uint32_t>(dict_chars.size()));
      hashes.push_back(Value::String(std::string(s)).Hash());
    }
    c->chars = std::move(dict_chars);
    c->offsets = std::move(dict_offsets);
    c->dict_hashes = std::move(hashes);
  } else {
    std::unordered_map<int64_t, uint32_t> intern;
    std::vector<int64_t> entries;
    for (size_t i = 0; i < n; ++i) {
      const int64_t v = c->nulls[i] != 0 ? 0 : c->ints[i];
      auto [it, added] = intern.emplace(v, entries.size());
      if (added) {
        if (entries.size() >= max_entries) return false;
        entries.push_back(v);
      }
      codes[i] = it->second;
    }
    std::vector<size_t> hashes;
    hashes.reserve(entries.size());
    for (int64_t v : entries) hashes.push_back(Value::Int64(v).Hash());
    c->ints = std::move(entries);
    c->dict_hashes = std::move(hashes);
  }
  c->codes = std::move(codes);
  c->encoding = ChunkEncoding::kDict;
  return true;
}

/// Rewrites a plain chunk into run-length form: payload arrays and nulls
/// shrink to one entry per run; run_ends is the cumulative row count.
void EncodeRle(Table::ColumnChunk* c, size_t n) {
  std::vector<uint32_t> run_ends;
  std::vector<uint8_t> run_nulls;
  std::vector<int64_t> run_ints;
  std::vector<double> run_doubles;
  std::string run_chars;
  std::vector<uint32_t> run_offsets;
  if (c->type == DataType::kString) run_offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && SameCell(*c, i, i - 1)) {
      run_ends.back() = static_cast<uint32_t>(i + 1);
      continue;
    }
    run_ends.push_back(static_cast<uint32_t>(i + 1));
    run_nulls.push_back(c->nulls[i]);
    switch (c->type) {
      case DataType::kString:
        run_chars.append(c->chars.data() + c->offsets[i],
                         c->offsets[i + 1] - c->offsets[i]);
        run_offsets.push_back(static_cast<uint32_t>(run_chars.size()));
        break;
      case DataType::kDouble:
        run_doubles.push_back(c->doubles[i]);
        break;
      default:
        run_ints.push_back(c->ints[i]);
        break;
    }
  }
  c->run_ends = std::move(run_ends);
  c->nulls = std::move(run_nulls);
  c->ints = std::move(run_ints);
  c->doubles = std::move(run_doubles);
  c->chars = std::move(run_chars);
  c->offsets = std::move(run_offsets);
  c->encoding = ChunkEncoding::kRle;
}

/// Per-chunk encoding choice. Forced modes apply wherever the type allows
/// (dictionaries only make sense for strings and int64s; RLE works on any
/// typed column); kAuto takes RLE when the average run is >= 8 rows, else
/// a dictionary when the cardinality is low, else plain.
void MaybeEncodeChunk(Table::ColumnChunk* c, size_t n, TableEncoding mode) {
  if (c->mixed || n == 0 || n > static_cast<size_t>(UINT32_MAX)) return;
  const bool dictable =
      c->type == DataType::kString || c->type == DataType::kInt64;
  switch (mode) {
    case TableEncoding::kDict:
      if (dictable) EncodeDict(c, n, /*max_entries=*/size_t{1} << 16);
      break;
    case TableEncoding::kRle:
      EncodeRle(c, n);
      break;
    case TableEncoding::kAuto: {
      if (n < 32) return;  // tiny chunks: encoding overhead beats savings
      const size_t runs = CountRuns(*c, n);
      if (runs * 8 <= n) {
        EncodeRle(c, n);
      } else if (dictable) {
        EncodeDict(c, n, std::min<size_t>(4096, n / 4));
      }
      break;
    }
    case TableEncoding::kPlain:
      break;
  }
}

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
  if (encoded_) {
    return Status::FailedPrecondition("table " + name_ +
                                      " is encoded and read-only");
  }
  for (size_t c = 0; c < row.size(); ++c) {
    AppendCell(&chunks_[c], num_rows_, std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::Encode(TableEncoding mode) {
  if (encoded_) {
    return Status::FailedPrecondition("table " + name_ +
                                      " is already encoded");
  }
  encoded_ = true;
  for (ColumnChunk& chunk : chunks_) MaybeEncodeChunk(&chunk, num_rows_, mode);
  return Status::OK();
}

size_t Table::ColumnChunk::bytes() const {
  return ints.size() * sizeof(int64_t) + doubles.size() * sizeof(double) +
         chars.size() + offsets.size() * sizeof(uint32_t) + nulls.size() +
         codes.size() * sizeof(uint32_t) +
         dict_hashes.size() * sizeof(size_t) +
         run_ends.size() * sizeof(uint32_t) + vals.size() * sizeof(Value);
}

Value Table::ColumnChunk::GetValue(size_t row) const {
  if (mixed) return vals[row];
  // Physical index of the row's payload: its dictionary entry, its run,
  // or the row itself.
  size_t p = row;
  if (encoding == ChunkEncoding::kRle) {
    p = static_cast<size_t>(
        std::upper_bound(run_ends.begin(), run_ends.end(), row) -
        run_ends.begin());
    if (nulls[p] != 0) return Value::Null(type);
  } else {
    if (nulls[row] != 0) return Value::Null(type);
    if (encoding == ChunkEncoding::kDict) p = codes[row];
  }
  switch (type) {
    case DataType::kBool: return Value::Bool(ints[p] != 0);
    case DataType::kDate: return Value::Date(static_cast<int32_t>(ints[p]));
    case DataType::kDouble: return Value::Double(doubles[p]);
    case DataType::kString:
      return Value::String(
          std::string(chars.data() + offsets[p], offsets[p + 1] - offsets[p]));
    default: return Value::Int64(ints[p]);
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
