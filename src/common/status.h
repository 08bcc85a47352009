#ifndef ORQ_COMMON_STATUS_H_
#define ORQ_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace orq {

/// Error categories used across the library. The library does not throw
/// exceptions; every fallible operation returns a Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  /// Malformed input: SQL syntax errors, binder errors, bad arguments.
  kInvalidArgument,
  /// A named entity (table, column, index) does not exist.
  kNotFound,
  /// A run-time error raised during query execution (e.g. division by
  /// zero).
  kRuntimeError,
  /// The Max1row guard tripped: a scalar subquery returned more than one
  /// row (paper section 2.4).
  kCardinalityViolation,
  /// The construct is recognized but not supported by this build.
  kUnsupported,
  /// An internal invariant was violated; indicates a bug in the library.
  kInternal,
  /// The query was cooperatively cancelled (client disconnect, server
  /// shutdown, explicit cancel request).
  kCancelled,
  /// The query's deadline elapsed before it finished (per-query timeout).
  kDeadlineExceeded,
  /// The server declined the request up front (admission queue full).
  kUnavailable,
  /// The object is not in a state that allows the operation. No engine
  /// path returns it today; it keeps its place in the wire protocol.
  kFailedPrecondition,
};

/// Lightweight status object carrying an error code and message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status RuntimeError(std::string msg) {
    return Status(StatusCode::kRuntimeError, std::move(msg));
  }
  static Status CardinalityViolation(std::string msg) {
    return Status(StatusCode::kCardinalityViolation, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

  static std::string CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kRuntimeError: return "RuntimeError";
      case StatusCode::kCardinalityViolation: return "CardinalityViolation";
      case StatusCode::kUnsupported: return "Unsupported";
      case StatusCode::kInternal: return "Internal";
      case StatusCode::kCancelled: return "Cancelled";
      case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
      case StatusCode::kUnavailable: return "Unavailable";
      case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    }
    return "Unknown";
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace orq

/// Propagates a non-OK Status from the current function.
#define ORQ_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::orq::Status _orq_status = (expr);           \
    if (!_orq_status.ok()) return _orq_status;    \
  } while (0)

#endif  // ORQ_COMMON_STATUS_H_
