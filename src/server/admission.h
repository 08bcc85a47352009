#ifndef ORQ_SERVER_ADMISSION_H_
#define ORQ_SERVER_ADMISSION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/status.h"
#include "exec/cancel.h"

namespace orq {

/// Admission policy: at most `max_concurrent` queries execute at once; at
/// most `max_queued` more may wait. Arrivals beyond both bounds are
/// rejected immediately (Unavailable) instead of queueing without bound —
/// under overload the server sheds load at the door, keeping latency for
/// admitted queries bounded by queue depth × service time.
struct AdmissionOptions {
  int max_concurrent = 4;
  int max_queued = 64;
};

/// Counting gate in front of query execution. Admission is strict FIFO:
/// each waiter takes a ticket, and a freed slot goes to the ticket at the
/// head of the queue — never to a later waiter that happened to wake first,
/// and never to a fresh arrival while anyone queues (both were possible
/// before and starved early waiters under sustained load). Admit honors
/// the waiter's CancelToken (a deadline spent queueing is charged to the
/// query) and fails fast once Shutdown ran.
///
/// Every Admit call lands in exactly one outcome counter:
/// admitted + rejected + cancelled == calls.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options)
      : options_(options) {}

  /// Blocks until a slot is granted. OK means the caller owns one run slot
  /// and must Release() it. Unavailable when the queue is full or the
  /// controller shut down; Cancelled/DeadlineExceeded when `cancel` fired
  /// while waiting.
  Status Admit(const CancelToken* cancel);
  void Release();

  /// Wakes every waiter with Unavailable and rejects future arrivals.
  void Shutdown();

  int running() const;
  int queued() const;
  int64_t admitted() const;
  int64_t rejected() const;
  /// Waiters whose CancelToken fired while they were queued. Previously
  /// these silently vanished from the books (queued_ went down but neither
  /// admitted_ nor rejected_ moved).
  int64_t cancelled() const;
  int64_t peak_queued() const;

 private:
  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable slot_free_;
  int running_ = 0;
  bool shutdown_ = false;
  /// FIFO of live waiter tickets; front is next to be admitted. A waiter
  /// that gives up (cancel/shutdown) erases its ticket so it cannot block
  /// the queue. queue_.size() is the queued count.
  std::deque<uint64_t> queue_;
  uint64_t next_ticket_ = 0;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  int64_t cancelled_ = 0;
  int64_t peak_queued_ = 0;
};

}  // namespace orq

#endif  // ORQ_SERVER_ADMISSION_H_
