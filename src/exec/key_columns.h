#ifndef ORQ_EXEC_KEY_COLUMNS_H_
#define ORQ_EXEC_KEY_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/key_table.h"
#include "exec/column_batch.h"

namespace orq {

// Column-keyed access to a KeyTable. A probe key is one physical row `r`
// read through `cols`, one ColumnVec per key column, all of one batch; its
// hash comes from InitKeyHashes/HashCombineColumn, which agree with the
// RowHash a Row-keyed insert uses. No key is decoded into a Row.

/// The id of row `r`'s key (hash `hash`), or KeyTable::kNone.
uint32_t FindColumns(const KeyTable& table, const ColumnVec* const* cols,
                     uint32_t r, size_t hash);

/// Group ids of every live row of `batch` keyed by `cols`, inserting the
/// keys not yet in `table`: (*ids)[j] is the id of the row at selection
/// position j, whose hash is hashes[j]. A zero-width table maps every row
/// to group 0.
void GroupIds(KeyTable* table, const ColumnBatch& batch,
              const ColumnVec* const* cols, const std::vector<size_t>& hashes,
              std::vector<uint32_t>* ids);

/// Appends `col`'s value at every live row of `batch`, in selection
/// order, to `dst`.
void AppendLiveRows(const ColumnBatch& batch, const ColumnVec& col,
                    TypedColumn* dst);

/// Points `out` at entries [begin, begin + n) of a typed column (a table
/// column, a key or payload column), zero-copy; the view lives as long as
/// the column is neither cleared nor grown.
void ViewTypedColumn(const TypedColumn& col, uint32_t begin, uint32_t n,
                   ColumnVec* out);

}  // namespace orq

#endif  // ORQ_EXEC_KEY_COLUMNS_H_
