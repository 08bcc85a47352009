#include "exec/key_columns.h"

#include <cmath>

namespace orq {

namespace {

/// Group equality of one probe element and one stored key element: a raw
/// compare when both sides share a type, the Value comparison otherwise
/// (an int64 probe of a double key, or the reverse).
inline bool ElemEqualsKey(const ColumnVec& c, uint32_t r, const TypedColumn& k,
                          uint32_t id) {
  if (c.type() == k.type()) {
    const bool c_null = c.IsNull(r);
    const bool k_null = k.IsNull(id);
    if (c_null || k_null) return c_null == k_null;
    switch (c.rep()) {
      case ColumnRep::kInts: return c.IntAt(r) == k.IntAt(id);
      case ColumnRep::kDoubles: {
        const double a = c.DoubleAt(r);
        const double b = k.DoubleAt(id);
        return a == b || (std::isnan(a) && std::isnan(b));
      }
      case ColumnRep::kStrings: return c.StrAt(r) == k.StrAt(id);
    }
  }
  return k.EqualsValue(id, c.GetValue(r));
}

/// Appends element `r` of `c` to `key`.
inline void AppendElem(const ColumnVec& c, uint32_t r, TypedColumn* key) {
  if (c.IsNull(r)) {
    key->AppendNull();
  } else if (c.rep() == ColumnRep::kInts) {
    key->AppendInt(c.type(), c.IntAt(r));
  } else if (c.rep() == ColumnRep::kDoubles) {
    key->AppendDouble(c.DoubleAt(r));
  } else {
    key->AppendStr(c.StrAt(r));
  }
}

void AppendKeyColumns(KeyTable* table, const ColumnVec* const* cols,
                      uint32_t r) {
  for (size_t k = 0; k < table->width(); ++k) {
    AppendElem(*cols[k], r, &table->mutable_col(k));
  }
}

/// Whether row `r` of `cols` group-equals entry `id` of `table`.
bool KeyEqualsColumns(const KeyTable& table, uint32_t id,
                      const ColumnVec* const* cols, uint32_t r) {
  for (size_t k = 0; k < table.width(); ++k) {
    if (!ElemEqualsKey(*cols[k], r, table.col(k), id)) return false;
  }
  return true;
}

}  // namespace

uint32_t FindColumns(const KeyTable& table, const ColumnVec* const* cols,
                     uint32_t r, size_t hash) {
  return table.Find(hash, [&](uint32_t id) {
    return KeyEqualsColumns(table, id, cols, r);
  });
}

void GroupIds(KeyTable* table, const ColumnBatch& batch,
              const ColumnVec* const* cols, const std::vector<size_t>& hashes,
              std::vector<uint32_t>* ids) {
  const uint32_t m = batch.selected();
  ids->resize(m);
  bool inserted = false;
  if (table->width() == 0) {
    table->FindOrInsert(
        RowHash{}(Row{}), [](uint32_t) { return true; }, [] {}, &inserted);
    ids->assign(m, 0);
    return;
  }
  uint32_t* out = ids->data();
  for (uint32_t j = 0; j < m; ++j) {
    const uint32_t r = batch.RowAt(j);
    out[j] = table->FindOrInsert(
        hashes[j],
        [&](uint32_t id) { return KeyEqualsColumns(*table, id, cols, r); },
        [&] { AppendKeyColumns(table, cols, r); }, &inserted);
  }
}

void AppendLiveRows(const ColumnBatch& batch, const ColumnVec& col,
                    TypedColumn* dst) {
  const uint32_t m = batch.selected();
  for (uint32_t j = 0; j < m; ++j) AppendElem(col, batch.RowAt(j), dst);
}

void ViewTypedColumn(const TypedColumn& col, uint32_t begin, uint32_t n,
                   ColumnVec* out) {
  const uint8_t* nulls = col.any_null() ? col.nulls() + begin : nullptr;
  switch (col.rep()) {
    case ColumnRep::kInts:
      out->SetIntView(col.type(), col.ints() + begin, nulls, n);
      break;
    case ColumnRep::kDoubles:
      out->SetDoubleView(col.doubles() + begin, nulls, n);
      break;
    case ColumnRep::kStrings:
      out->SetStringView(col.chars(), col.offsets() + begin, nulls, n);
      break;
  }
}

}  // namespace orq
