#ifndef ORQ_EXEC_CANCEL_H_
#define ORQ_EXEC_CANCEL_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"
#include "obs/stats.h"

namespace orq {

/// Cooperative cancellation handle for one query execution. The submitting
/// side (a server session, a CLI with --timeout-ms, a test) owns the token
/// and may cancel it or arm a deadline from any thread; the executing side
/// polls Check() from the PhysicalOp Open/Next/NextColumns shells — the
/// single accounting sites every operator pull goes through — so a firing
/// token unwinds the whole plan as an error within roughly one batch of
/// work, releasing spools and hash arenas through the normal Close/
/// destructor path.
///
/// All state is atomic: one token may be observed by every worker of a
/// parallel gang while the session thread cancels it.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation (idempotent, thread-safe).
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms an absolute deadline on the ObsNowNanos timeline; <= 0 disarms.
  void SetDeadlineNanos(int64_t deadline_nanos) {
    deadline_nanos_.store(deadline_nanos, std::memory_order_relaxed);
  }

  /// Arms a deadline `timeout_ms` from now; <= 0 disarms.
  void SetTimeoutMs(int64_t timeout_ms) {
    SetDeadlineNanos(timeout_ms > 0 ? ObsNowNanos() + timeout_ms * 1000000
                                    : 0);
  }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// OK while the query may continue; Cancelled / DeadlineExceeded once it
  /// must stop. Reads the clock only when a deadline is armed. A deadline
  /// that fires latches the token, so later checks (and other workers)
  /// agree on DeadlineExceeded without re-reading the clock.
  Status Check() const {
    if (cancelled_.load(std::memory_order_relaxed)) {
      return deadline_hit_.load(std::memory_order_relaxed)
                 ? Status::DeadlineExceeded("query deadline exceeded")
                 : Status::Cancelled("query cancelled");
    }
    const int64_t deadline = deadline_nanos_.load(std::memory_order_relaxed);
    if (deadline > 0 && ObsNowNanos() >= deadline) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      cancelled_.store(true, std::memory_order_relaxed);
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

 private:
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> deadline_hit_{false};
  std::atomic<int64_t> deadline_nanos_{0};
};

}  // namespace orq

#endif  // ORQ_EXEC_CANCEL_H_
