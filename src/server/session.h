#ifndef ORQ_SERVER_SESSION_H_
#define ORQ_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace orq {

/// A session-scoped prepared statement: the SQL text (with `?` positional
/// parameters) plus the parameter types inferred at PREPARE time. The
/// compiled plan itself lives in the engine's plan cache, keyed by the SQL
/// text — EXECUTE re-submits the text and takes the level-1 hit.
struct PreparedStatement {
  std::string sql;
  std::vector<DataType> param_types;
};

/// Per-connection session state: an engine configuration the client edits
/// through SET frames, plus the per-query deadline. One session serves one
/// connection thread, so Session itself needs no locking; the engine built
/// from it is rebuilt whenever the options change or the catalog snapshot
/// the session last ran against was swapped out.
class Session {
 public:
  Session(int id, EngineOptions base_options, int64_t default_timeout_ms,
          int64_t default_slow_query_ms = 0)
      : id_(id),
        options_(std::move(base_options)),
        timeout_ms_(default_timeout_ms),
        slow_query_ms_(default_slow_query_ms) {}

  int id() const { return id_; }
  const EngineOptions& engine_options() const { return options_; }
  int64_t timeout_ms() const { return timeout_ms_; }
  /// Slow-query threshold: completed queries at or above this wall time get
  /// their full EXPLAIN ANALYZE text captured in the query store (0 = off).
  int64_t slow_query_ms() const { return slow_query_ms_; }

  /// Mints the next stable query id for this session: "s<id>q<seq>".
  /// Session is single-threaded (one connection thread), so a plain
  /// counter suffices; ids are unique server-wide because session ids are.
  std::string NextQueryId() {
    return "s" + std::to_string(id_) + "q" + std::to_string(++next_query_seq_);
  }

  /// Generation counter bumped by every successful SET that changes the
  /// engine options, so the connection loop knows to rebuild its cached
  /// engine (and its plan cache). timeout_ms and slow_query_ms stay on the
  /// session and leave it alone.
  int64_t options_generation() const { return options_generation_; }

  int64_t queries_run() const { return queries_run_; }
  void CountQuery() { ++queries_run_; }

  /// Applies one SET command ("name value" or "name=value"). Knobs:
  ///   threads N      -- morsel-parallel worker count (0 = serial)
  ///   exec columnar|row -- execution mode: SoA column batches (the
  ///                    default) or the row-at-a-time reference engine
  ///   batch_size N   -- rows per column batch (1..65536)
  ///   morsel_rows N  -- rows per parallel-scan morsel claim
  ///   timeout_ms N   -- per-query deadline (0 disables)
  ///   plan_cache on|off -- fingerprint-keyed plan cache + parameterization
  ///   slow_query_ms N -- slow-query log threshold (0 disables)
  Status ApplySet(const std::string& command);

  /// Registers (or replaces) a prepared statement. Bounded per session so
  /// a client cannot grow server memory without limit.
  Status RegisterPrepared(const std::string& name, PreparedStatement stmt);
  /// Null when `name` was never prepared (or was deallocated).
  const PreparedStatement* FindPrepared(const std::string& name) const;
  bool DeallocatePrepared(const std::string& name);

 private:
  int id_;
  EngineOptions options_;
  int64_t timeout_ms_;
  int64_t slow_query_ms_ = 0;
  int64_t options_generation_ = 0;
  int64_t queries_run_ = 0;
  int64_t next_query_seq_ = 0;
  std::map<std::string, PreparedStatement> prepared_;
};

}  // namespace orq

#endif  // ORQ_SERVER_SESSION_H_
