#ifndef ORQ_ENGINE_ENGINE_H_
#define ORQ_ENGINE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/plan_cache.h"
#include "exec/cancel.h"
#include "exec/exec.h"
#include "exec/task_pool.h"
#include "normalize/normalizer.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "opt/physical.h"

namespace orq {

/// A complete query result: column names plus rows.
struct QueryResult {
  std::vector<std::string> column_names;
  /// Each output column's bound type: every non-NULL value of column i
  /// carries column_types[i].
  std::vector<DataType> column_types;
  std::vector<Row> rows;
  /// Total rows produced by all operators while executing (a deterministic
  /// work measure used to compare strategies).
  int64_t rows_produced = 0;
};

/// ExecuteAnalyzed's product: the result plus the observability artifacts —
/// per-operator runtime stats annotated with cost-model estimates, and the
/// normalizer/optimizer rule-firing trace.
struct AnalyzedQuery {
  std::string sql;
  QueryResult result;
  /// Physical plan tree with actual rows/time and estimated rows/cost per
  /// operator (paper Figs. 1/8/9 attribution; cost calibration hook).
  PlanStatsNode plan;
  TraceLog trace;
  /// Wall-nanosecond breakdown of the whole lifecycle (parse through
  /// execute); profile.total_nanos is the end-to-end wall time.
  QueryProfile profile;
  /// Engine-wide execution metrics (hash-path shape, spools, re-opens).
  MetricsRegistry metrics;
  /// Operator Open→Close spans; populated only when AnalyzeOptions
  /// requested span recording (ChromeTraceJson renders them).
  SpanRecorder spans;
  /// Wall time of the execution phase (Open to Close of the root).
  int64_t exec_wall_nanos = 0;

  /// Machine-readable form (schema in DESIGN.md). `label` identifies the
  /// run (benchmark name, engine configuration, ...).
  std::string ToJson(const std::string& label = "") const;
};

/// Knobs for ExecuteAnalyzed beyond the engine configuration.
struct AnalyzeOptions {
  /// Record one span per operator Open→Close lifetime (orq_profile's trace
  /// export). Off by default: spans grow with correlated re-opens, which
  /// EXPLAIN ANALYZE does not need.
  bool record_spans = false;
  /// Cooperative cancellation/deadline token (see ExecControl::cancel).
  const CancelToken* cancel = nullptr;
  /// Stable query id stamped into the profile/stats JSON. Empty mints an
  /// engine-local "q<n>" id, so every analyzed run is identifiable.
  std::string query_id;
};

/// Per-query observability capture for the plain Execute path — everything
/// the server's query store records without the full AnalyzedQuery bundle.
/// Attach via ExecControl::observe; the engine fills it in whether the
/// query succeeds or fails (a cancelled query still reports the phases it
/// finished and the per-operator rows it produced).
struct QueryObservation {
  /// Phase timings plus cache outcome; profile.query_id/live_phase are
  /// caller-seeded (the engine only writes timings and cache).
  QueryProfile profile;
  /// Per-operator actual-vs-estimated stats tree (valid when has_plan).
  PlanStatsNode plan;
  bool has_plan = false;
  /// FNV-1a hex fingerprint of the plan's canonical serialization — the
  /// plan-cache key, so records aggregate across literal variants (the
  /// substrate for ROADMAP item 4's cardinality feedback).
  std::string fingerprint;
  /// Wall time of the execution phase alone.
  int64_t exec_wall_nanos = 0;
};

/// Per-call execution control, orthogonal to the engine configuration:
/// a cancellation/deadline token and an optional lightweight metrics sink.
/// Both are caller-owned and may be shared across calls; neither mutates
/// the engine, so concurrent Execute calls with distinct controls are safe.
struct ExecControl {
  /// Polled by the operator shells; a fired token unwinds the query as
  /// Cancelled/DeadlineExceeded. Null runs unbounded.
  const CancelToken* cancel = nullptr;
  /// When set, the execution records engine metrics (hash-path shape,
  /// spools, re-opens) into this registry — the cheap slice of the
  /// instrumented path, without per-operator stats or spans. The caller
  /// synchronizes the registry; the engine only writes during the call.
  MetricsRegistry* metrics = nullptr;
  /// When set, the engine times compile/execute phases, fingerprints the
  /// plan, collects per-operator stats, and snapshots them all here on the
  /// way out (success or failure) — the server's query-store feed. Null
  /// keeps the plain path free of stats collection.
  QueryObservation* observe = nullptr;
  /// When set, the executor publishes rows-produced-so-far here (relaxed
  /// stores from the operator shells) for live introspection.
  std::atomic<int64_t>* progress_rows = nullptr;
  /// Caller-minted stable query id (threaded into the observation profile
  /// and error paths). Empty when the caller does not track ids.
  std::string query_id;
};

/// End-to-end engine configuration. Defaults enable the paper's full
/// technique set; benchmarks flip individual switches for ablation.
struct EngineOptions {
  NormalizerOptions normalizer;
  OptimizerOptions optimizer;
  PhysicalBuildOptions physical;
  /// Execution mode: batch-at-a-time (default) or row-at-a-time Volcano.
  /// Both produce identical results; the difftest oracle cross-checks them.
  ExecOptions exec;
  /// Plan cache (engine/plan_cache.h). Off by default: cached compiles go
  /// through the parameterized lane, which trades literal-aware rewrites
  /// (constant folding across comparisons) for reuse — an explicit opt-in.
  PlanCacheOptions plan_cache;

  /// Named configurations used across benchmarks/EXPERIMENTS.md.
  static EngineOptions Full();
  /// No decorrelation, no cost-based optimization: the "correlated
  /// execution" strategy of section 1.1 (still uses indexes).
  static EngineOptions CorrelatedOnly();
  /// Decorrelation but none of the section-3 GroupBy techniques.
  static EngineOptions NoGroupByOptimizations();
  /// Everything except SegmentApply.
  static EngineOptions NoSegmentApply();
};

/// The public entry point: parse -> bind -> Apply introduction ->
/// normalization -> cost-based optimization -> execution (paper section 4).
///
/// Execute, ExecuteParams and ExecuteAnalyzed run one lifecycle:
///  1. Resolve `sql` to an optimized template and its literal values,
///     through the plan cache or compiled for this call alone; an observed
///     Execute fingerprints the template.
///  2. Bind parameters: one arity check, then the values are substituted.
///  3. Build and run; an observed call's `total_nanos` ends with the
///     execute phase, before its per-operator stats are snapshot.
///
/// Re-entrancy: Execute/ExecuteCompiled/ExecuteAnalyzed/Explain are safe
/// to call from many threads concurrently on one engine. Each call
/// snapshots the configuration once at entry and pins the worker pool via
/// shared ownership, so a concurrent set_options never mutates a running
/// query (it applies to calls that start afterwards). The catalog must
/// stay structurally unchanged while queries run (the server swaps whole
/// catalog snapshots instead of mutating a live one); lazily cached table
/// statistics are internally synchronized.
class QueryEngine {
 public:
  explicit QueryEngine(Catalog* catalog,
                       EngineOptions options = EngineOptions::Full())
      : catalog_(catalog), options_(std::move(options)) {}
  ~QueryEngine();  // out of line: owns the (fwd-declared) TaskPool

  /// Configuration snapshot (by value: the live configuration may be
  /// swapped by a concurrent set_options).
  EngineOptions options() const {
    std::lock_guard<std::mutex> lock(mu_);
    return options_;
  }
  /// Replaces the configuration for calls that start after this returns;
  /// in-flight queries keep the snapshot (and pool) they started with.
  /// The worker pool is rebuilt lazily on the next parallel execution.
  void set_options(EngineOptions options);

  /// Parses, optimizes and runs `sql`.
  Result<QueryResult> Execute(const std::string& sql);
  /// Execute with per-call control: cancellation/deadline and an optional
  /// metrics sink (the network server's path).
  Result<QueryResult> Execute(const std::string& sql,
                              const ExecControl& control);

  /// Compilation artifacts for inspection (examples, tests, EXPLAIN).
  struct Compiled {
    ColumnManagerPtr columns;
    RelExprPtr bound;        // after binding (subqueries still embedded)
    RelExprPtr applied;      // after Apply introduction
    RelExprPtr normalized;   // after correlation removal etc.
    RelExprPtr optimized;    // after cost-based optimization
    std::vector<ColumnId> output_cols;
    std::vector<std::string> output_names;
    /// Types of the statement's `?` parameters, by ordinal. Non-empty means
    /// the optimized tree contains kParam placeholders and needs
    /// SubstituteParams (via ExecuteParams) before it can run.
    std::vector<DataType> param_types;
  };
  Result<Compiled> Compile(const std::string& sql);

  /// Multi-phase EXPLAIN text (logical trees per phase + physical plan).
  Result<std::string> Explain(const std::string& sql);

  /// Runs an already compiled query.
  Result<QueryResult> ExecuteCompiled(const Compiled& compiled,
                                      const ExecControl& control = {});

  /// Executes `sql` with full observability: per-operator stats collection,
  /// rule tracing, and cost-model estimates on the physical plan. This is
  /// an observed Execute with trace sinks (and optionally a span recorder)
  /// attached: results, stats tree and cache outcome equal what an
  /// ExecControl::observe call reports.
  Result<AnalyzedQuery> ExecuteAnalyzed(const std::string& sql,
                                        const AnalyzeOptions& analyze = {});

  /// EXPLAIN ANALYZE: runs the query and renders the physical plan with
  /// actual rows/wall time next to the cost model's estimates, followed by
  /// the rule-firing trace.
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Prepared-statement metadata: what EXECUTE must supply and what it
  /// will get back.
  struct PreparedInfo {
    std::vector<DataType> param_types;
    std::vector<std::string> output_names;
  };
  /// Validates and compiles `sql` (through the plan cache when enabled, so
  /// the first EXECUTE is already a hit) without executing it.
  Result<PreparedInfo> Prepare(const std::string& sql);

  /// Executes a statement with positional parameter values (`?` in the
  /// SQL, matched by position). Works with the plan cache on or off; with
  /// it on, repeated calls reuse the cached optimized template and skip
  /// every compile phase up to physical build. A wrong number of values
  /// (none for a statement with `?`, or values for one without) is
  /// InvalidArgument on either lane. The observed fingerprint is taken
  /// before the values are bound, so every EXECUTE of one statement shares
  /// it.
  Result<QueryResult> ExecuteParams(const std::string& sql,
                                    const std::vector<Value>& params,
                                    const ExecControl& control = {});

  /// Plan-cache lifetime counters (zero when the cache was never enabled).
  int64_t plan_cache_hits() const;
  int64_t plan_cache_misses() const;
  int64_t plan_cache_evictions() const;

 private:
  /// Compile with explicit options (ExecuteAnalyzed attaches trace sinks
  /// without mutating the engine's configuration). A non-null `profile`
  /// times each compile phase (parse/bind/apply_intro/normalize/optimize);
  /// a non-null `cancel` is polled between phases.
  Result<Compiled> CompileWith(const std::string& sql,
                               const EngineOptions& options,
                               QueryProfile* profile = nullptr,
                               const CancelToken* cancel = nullptr);

  /// Parse + bind only (timed as the kParse/kBind phases); fills in
  /// columns, bound tree, output signature and parameter types.
  Result<Compiled> ParseAndBind(const std::string& sql,
                                QueryProfile* profile);

  /// The tail of compilation (Apply introduction -> normalize -> optimize)
  /// on a Compiled whose bound tree is already filled in. Shared by the
  /// plain lane and the plan-cache lane (which parameterizes between bind
  /// and this call).
  Result<Compiled> FinishCompile(Compiled compiled,
                                 const EngineOptions& options,
                                 QueryProfile* profile,
                                 const CancelToken* cancel);

  /// One statement resolved to an optimized template: the shared
  /// immutable cache entry, or on the plain lane a template compiled for
  /// this call alone. `auto_values` are the literals the cache lane
  /// stripped from this statement text (explicit `?` values are supplied
  /// separately).
  struct PlannedQuery {
    std::shared_ptr<const CachedPlan> plan;
    std::vector<Value> auto_values;
    CacheOutcome cache = CacheOutcome::kOff;
  };

  /// Lifecycle step 1: the plan-cache lane when enabled, else CompileWith.
  Result<PlannedQuery> Resolve(const std::string& sql,
                               const EngineOptions& options,
                               QueryProfile* profile,
                               const CancelToken* cancel,
                               MetricsRegistry* metrics);

  /// Cache-lane compilation: level-1 text hit skips everything; level-2
  /// fingerprint hit skips normalize/optimize; miss compiles the
  /// parameterized template and inserts it. Hits/misses/evictions are
  /// recorded into `metrics` (optional) and the cache's own counters.
  Result<PlannedQuery> PlanWithCache(const std::string& sql,
                                     const EngineOptions& options,
                                     QueryProfile* profile,
                                     const CancelToken* cancel,
                                     MetricsRegistry* metrics);

  /// Lifecycle step 2: checks the explicit values' arity and substitutes
  /// them (and the auto values) into the template, as a Compiled sharing
  /// the template's ColumnManager (safe: physical build takes the manager
  /// by const reference).
  Result<Compiled> BindParams(const PlannedQuery& planned,
                              const std::vector<Value>& explicit_values)
      const;

  PlanCache* EnsurePlanCache(const PlanCacheOptions& options);

  /// The whole lifecycle against an explicit options snapshot (so
  /// concurrent callers never re-read live options, and ExecuteAnalyzed
  /// can attach trace sinks). `spans` (optional) records operator spans;
  /// `fingerprint` (optional) receives the template's fingerprint, so only
  /// a caller that keeps one pays for it.
  Result<QueryResult> ExecuteWith(const std::string& sql,
                                  const std::vector<Value>& params,
                                  const EngineOptions& options,
                                  const ExecControl& control,
                                  SpanRecorder* spans,
                                  std::string* fingerprint);

  /// Lifecycle step 3: physical build, execution and, when
  /// `control.observe` is set, the observation snapshot.
  Result<QueryResult> BuildAndRun(const Compiled& compiled,
                                  const EngineOptions& options,
                                  const ExecControl& control,
                                  SpanRecorder* spans);

  /// Physical-build options with the execution thread count applied (the
  /// builder decides where the Exchange goes, so it must know N).
  static PhysicalBuildOptions EffectivePhysicalOptions(
      const EngineOptions& options);

  /// Lazily created worker pool, shared so an in-flight query keeps its
  /// pool alive across a concurrent set_options; null in serial mode.
  /// Kept across queries so repeated executions reuse warm threads.
  std::shared_ptr<TaskPool> SharedTaskPool(int num_threads);

  Catalog* catalog_;
  mutable std::mutex mu_;  // guards options_, pool_ and plan_cache_ creation
  EngineOptions options_;
  std::shared_ptr<TaskPool> pool_;
  /// Lazily created on first cache-enabled query; survives set_options
  /// (entries are keyed by the options fingerprint, so stale configurations
  /// simply age out of the LRU). Internally synchronized.
  std::unique_ptr<PlanCache> plan_cache_;
};

}  // namespace orq

#endif  // ORQ_ENGINE_ENGINE_H_
