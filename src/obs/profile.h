#ifndef ORQ_OBS_PROFILE_H_
#define ORQ_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/stats.h"
#include "obs/trace.h"

namespace orq {

/// Compilation/execution pipeline phases, in pipeline order. One timer per
/// phase; the phases tile the query's end-to-end wall time (the paper's
/// whole argument is a trade of optimization time against execution time,
/// so both sides must be measurable).
enum class QueryPhase : int {
  kParse = 0,
  kBind,
  kApplyIntro,
  kNormalize,
  kOptimize,
  kPhysicalBuild,
  kExecute,
};
inline constexpr int kNumQueryPhases = static_cast<int>(QueryPhase::kExecute) + 1;

const char* QueryPhaseName(QueryPhase phase);

/// Wall-clock interval of one phase. `start_nanos` is on the ObsNowNanos
/// timeline (absolute), so phases can be exported as trace spans;
/// `wall_nanos` accumulates across re-entries (a phase that runs twice
/// keeps its first start and the summed duration).
struct PhaseSpan {
  int64_t start_nanos = 0;
  int64_t wall_nanos = 0;
};

/// Plan-cache outcome of one query, for the EXPLAIN ANALYZE breakdown.
enum class CacheOutcome : int {
  kOff = 0,   // plan cache disabled; no line rendered
  kMiss,      // compiled cold (entry inserted)
  kHit,       // served from cache; compile phases up to optimize skipped
};

/// Wall-nanosecond breakdown of one query's lifecycle. Accumulated by
/// every observed call (QueryEngine::ExecuteAnalyzed, or an Execute with
/// ExecControl::observe set); phases are timed back to back and
/// `total_nanos` ends with the execute phase, before the per-operator
/// stats snapshot, so PhaseSum() accounts for the whole of `total_nanos`
/// up to the (tiny) bookkeeping between phases — the invariant obs_test
/// pins at 5%.
struct QueryProfile {
  PhaseSpan phases[kNumQueryPhases];
  /// Start of the measured window (compile entry), ObsNowNanos timeline.
  int64_t start_nanos = 0;
  /// End-to-end wall time: compile entry to execution end.
  int64_t total_nanos = 0;
  /// Whether the plan came from the plan cache (kOff when caching is off).
  CacheOutcome cache = CacheOutcome::kOff;
  /// Stable query id ("s<session>q<seq>" on the server, "q<n>" for
  /// engine-local analyzed runs; empty when no id was minted). Carried here
  /// so every renderer that already takes a profile can cross-reference.
  std::string query_id;
  /// When non-null, each PhaseTimer publishes its phase index here as it
  /// starts — the lock-free "current phase" feed behind `\queries`. The
  /// pointer must outlive the query; owners clear it before copying the
  /// profile into long-lived storage.
  std::atomic<int>* live_phase = nullptr;

  const PhaseSpan& phase(QueryPhase p) const {
    return phases[static_cast<int>(p)];
  }
  int64_t PhaseSum() const;
};

/// RAII phase timer: construction stamps the start, destruction adds the
/// elapsed wall time to the profile. Null profile disables timing (the
/// plain Execute path passes nullptr and pays nothing).
class PhaseTimer {
 public:
  PhaseTimer(QueryProfile* profile, QueryPhase phase)
      : profile_(profile),
        phase_(static_cast<int>(phase)),
        start_(profile != nullptr ? ObsNowNanos() : 0) {
    if (profile_ != nullptr && profile_->live_phase != nullptr) {
      profile_->live_phase->store(phase_, std::memory_order_relaxed);
    }
  }
  ~PhaseTimer() {
    if (profile_ == nullptr) return;
    PhaseSpan& span = profile_->phases[phase_];
    if (span.wall_nanos == 0) span.start_nanos = start_;
    span.wall_nanos += ObsNowNanos() - start_;
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  QueryProfile* profile_;
  int phase_;
  int64_t start_;
};

/// EXPLAIN ANALYZE phase-breakdown header: one line per phase with wall
/// millis and percent of total, plus the per-rule cumulative compile time
/// aggregated from `trace` (rule/phase events carry wall_nanos).
std::string RenderProfile(const QueryProfile& profile, const TraceLog* trace);

/// Machine-readable form: {"total_nanos":N,"phases":[{"phase":...},...]}.
std::string ProfileToJson(const QueryProfile& profile);

}  // namespace orq

#endif  // ORQ_OBS_PROFILE_H_
