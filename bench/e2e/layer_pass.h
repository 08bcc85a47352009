#ifndef ORQ_BENCH_E2E_LAYER_PASS_H_
#define ORQ_BENCH_E2E_LAYER_PASS_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "report.h"
#include "span_log.h"
#include "workloads.h"

namespace orq::bench {

/// What the traced in-process pass measured.
struct LayerPassResult {
  /// Per-layer metrics listed in BENCHMARK.json.
  std::vector<Metric> metrics;
  /// Breakdowns whose names depend on the workload: per TPC-H query and
  /// per operator kind.
  std::vector<Metric> extras;
  int64_t executions = 0;
  /// Decoded answers that differ from the reference.
  int64_t mismatches = 0;
  /// Executions whose layer self times cover less than 95% of their wall
  /// (a preemption between two spans can cause a rare one).
  int64_t unattributed = 0;
  /// Share of all executions' wall time no layer span covers.
  double unattributed_pct = 0.0;

  /// The layer self times must account for the in-process wall time: in
  /// total within 5%, and per execution within 5% for all but 1% of them.
  bool attributed() const {
    return unattributed_pct <= 5.0 && unattributed * 100 <= executions;
  }
};

/// Runs the workload's queries in-process on one thread for `seconds`
/// (at least one full pass) through QueryEngine::Execute with the server's
/// engine options and a QueryObservation, as the server runs them. The
/// phases the observation timed (parse, bind, apply-intro, normalize,
/// optimize, physical build, execute) become child spans of a span around
/// the call, and spans around CanonicalRow + EncodeResult and DecodeResult
/// follow it. Each query also runs through the engine with and without a
/// QueryObservation, for the observation and tracing overheads.
Result<LayerPassResult> RunLayerPass(const Workload& workload,
                                     Catalog* catalog,
                                     const std::vector<BenchQuery>& queries,
                                     double seconds, SpanLog* log);

}  // namespace orq::bench

#endif  // ORQ_BENCH_E2E_LAYER_PASS_H_
