#include "common/packed_key.h"

#include "exec/column_batch.h"

namespace orq {

bool PackedKeyEq::operator()(const PackedKey& a, const ColumnKeyRef& b) const {
  if (a.hash != b.hash) return false;
  if (a.values.size() != b.num_keys) return false;
  for (size_t k = 0; k < b.num_keys; ++k) {
    if (!GroupEqualsRefs(LoadValue(a.values[k]),
                         LoadElem(*b.cols[k], b.row))) {
      return false;
    }
  }
  return true;
}

}  // namespace orq
