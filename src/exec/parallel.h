#ifndef ORQ_EXEC_PARALLEL_H_
#define ORQ_EXEC_PARALLEL_H_

#include <memory>
#include <vector>

#include "algebra/rel_expr.h"
#include "catalog/table.h"
#include "exec/exec.h"

namespace orq {

/// State shared by the N instances of one operator inside a parallel
/// region (morsel cursor, merged hash-join table, merged aggregation
/// groups). Created by the plan builder, reset by the exchange operator at
/// Open (instances may be re-opened, e.g. under an outer Apply above the
/// exchange) and again at Close to release memory.
class SharedRegionState {
 public:
  virtual ~SharedRegionState() = default;
  virtual void Reset() = 0;
};

using SharedRegionStatePtr = std::shared_ptr<SharedRegionState>;

/// Rows handed out per morsel claim. Large enough that the atomic claim is
/// noise, small enough that N workers stay balanced on skewed pipelines.
inline constexpr int kDefaultMorselRows = 4096;

/// Atomic cursor over a table's rows: each MorselScan instance claims
/// [begin, end) ranges until the table is exhausted.
SharedRegionStatePtr MakeMorselSource();

/// Parallel table scan: instance of TableScan that pulls morsels from a
/// shared MorselSource instead of scanning the whole table.
PhysicalOpPtr MakeMorselScan(const Table* table, std::vector<int> ordinals,
                             std::vector<ColumnId> layout,
                             SharedRegionStatePtr source);

/// Shared build state for a hash join executed by `workers` instances:
/// per-worker build partials merged into one table at a barrier.
SharedRegionStatePtr MakeSharedJoinState(int workers);

/// Shared merge state for a hash aggregation executed by `workers`
/// instances: per-worker local aggregation merged at end of input.
SharedRegionStatePtr MakeSharedAggState(int workers);

/// N-producers/1-consumer re-serialization point above a parallel region.
/// Opens one task per instance on the context's TaskPool; each task drains
/// its instance into a bounded queue of owned ColumnBatches which
/// NextColumns (whole batches) or Next (decoded rows) consume on the
/// caller's thread. Workers execute with private instrumentation
/// shards (stats/metrics/rows_produced) that Close merges back into the
/// parent context — after every producer finished, so the merge is
/// race-free by construction. `shared` lists the region's shared states
/// for reset at Open/Close.
PhysicalOpPtr MakeExchangeOp(std::vector<PhysicalOpPtr> instances,
                             std::vector<SharedRegionStatePtr> shared,
                             std::vector<ColumnId> layout);

}  // namespace orq

#endif  // ORQ_EXEC_PARALLEL_H_
