#ifndef ORQ_SERVER_SERVER_H_
#define ORQ_SERVER_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "engine/engine.h"
#include "obs/prom.h"
#include "obs/query_store.h"
#include "server/admission.h"
#include "server/session.h"
#include "server/wire.h"

namespace orq {

/// Daemon configuration (orq_serve flags map 1:1 onto this).
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the bound port is available from port().
  int port = 0;
  /// Cap on queries executing at once: admission's max_concurrent is
  /// clamped to this. Each admitted query runs on its connection's thread.
  int worker_threads = 4;
  AdmissionOptions admission;
  /// Default per-query deadline for new sessions; 0 = unbounded. Sessions
  /// override it with SET timeout_ms.
  int64_t default_timeout_ms = 0;
  /// Default slow-query threshold for new sessions (SET slow_query_ms
  /// overrides per session); 0 = slow-query capture off.
  int64_t default_slow_query_ms = 0;
  /// Completed-query ring capacity (`\history` depth).
  size_t query_store_capacity = 256;
  /// Plain-HTTP `GET /metrics` listener (Prometheus text exposition).
  /// -1 = disabled; 0 binds an ephemeral port (see metrics_port()).
  int metrics_port = -1;
  /// Base engine configuration new sessions start from.
  EngineOptions engine;
};

/// The network query service: accepts wire-protocol connections, one
/// session per connection, and executes admitted queries against an
/// immutable catalog snapshot.
///
/// Concurrency model:
///   * one accept thread + one thread per live connection (sessions are
///     long-lived; the bench scale is tens of sessions, not thousands);
///   * queries pass the AdmissionController, the one bound on executing
///     queries, then run on their connection's thread; the slot is
///     released before the reply is encoded and sent, so a slow client
///     never holds one;
///   * each query pins the catalog snapshot current at submit time
///     (shared_ptr), so ReplaceCatalog never mutates data under a running
///     query — readers drain off the old snapshot and it is freed;
///   * every in-flight query carries a CancelToken (session deadline);
///     Stop() cancels them all, so shutdown is bounded by one batch of
///     operator work, not by the longest query.
class QueryServer {
 public:
  QueryServer(std::shared_ptr<Catalog> catalog, ServerOptions options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();
  /// Graceful stop: reject new work, cancel in-flight queries, wake and
  /// join every connection thread. Idempotent.
  void Stop();

  /// The port actually bound (after Start).
  int port() const { return port_; }
  /// The bound HTTP metrics port (after Start; -1 when disabled).
  int metrics_port() const { return metrics_port_; }

  /// Current catalog snapshot / snapshot swap (loader tools; tests).
  std::shared_ptr<Catalog> CatalogSnapshot() const;
  void ReplaceCatalog(std::shared_ptr<Catalog> catalog);

  /// The \metrics admin body: engine+server counters accumulated across
  /// all finished queries, plus live gauges (sessions, queue depth).
  std::string MetricsText() const;
  /// `\metrics json`: {"engine":<MetricsToJson>,"server":{gauges}}.
  std::string MetricsJsonText() const;
  /// `\metrics prom` and the HTTP /metrics body: Prometheus text format.
  std::string MetricsPromText() const;
  /// `\queries`: every in-flight query (queued or running) with its id,
  /// session, elapsed wall time, current phase, and rows produced so far.
  std::string QueriesJsonText() const;
  /// `\history n`: the query store's newest `limit` records as JSON.
  std::string HistoryJsonText(size_t limit) const;
  /// `\cancel <id>`: fires the query's cancel token. NotFound when no
  /// in-flight query carries `id` (it may have already finished).
  Status CancelQuery(const std::string& id);

  int active_sessions() const {
    return active_sessions_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-flight query, registered before admission so `\queries` sees
  /// queued work and `\cancel` can reject it out of the admission queue.
  /// shared_ptr: `\cancel` runs on another connection's thread and must
  /// hold the token alive across its RequestCancel call even if the query
  /// finishes concurrently.
  struct LiveQuery {
    std::string id;
    int session_id = 0;
    std::string sql;
    int64_t start_nanos = 0;
    ProgressSink progress;
    CancelToken token;
  };

  void AcceptLoop();
  void MetricsLoop();
  void ServeConnection(int fd, int session_id);
  /// Admission + snapshot pin + engine cache refresh + execution.
  /// `engine`/`engine_catalog`/`engine_generation` are the connection's
  /// cached engine state (rebuilt when SET or a snapshot swap invalidated
  /// it). Non-null `params` runs the statement as a parameterized
  /// execution (the EXECUTE path). The minted query id is written to
  /// `query_id_out` before execution so the caller can stamp error frames.
  Result<WireResult> RunQuery(Session* session,
                              std::unique_ptr<QueryEngine>* engine,
                              std::shared_ptr<Catalog>* engine_catalog,
                              int64_t* engine_generation,
                              const std::string& sql,
                              const std::vector<Value>* params,
                              std::string* query_id_out);

  /// Rebuilds the connection's cached engine when the session options or
  /// the catalog snapshot moved underneath it (shared by the query path
  /// and PREPARE, which compiles without taking an admission slot).
  void EnsureEngine(Session* session, std::unique_ptr<QueryEngine>* engine,
                    std::shared_ptr<Catalog>* engine_catalog,
                    int64_t* engine_generation);

  void RegisterToken(CancelToken* token);
  void UnregisterToken(CancelToken* token);

  /// Unregisters the token and drops the live-registry entry (the record
  /// stays alive through `live`'s shared_ptr until every holder is done).
  void FinishLive(const std::shared_ptr<LiveQuery>& live);
  /// Point-in-time server gauges shared by the text/JSON/Prometheus
  /// metrics renderings.
  std::vector<PromGauge> ServerGauges() const;
  /// Records a finished/rejected query into the store (slow-query capture
  /// happens here, against `session`'s threshold).
  void RecordQuery(QueryRecord record, int64_t slow_query_ms);

  /// Join connection threads that have finished serving (accept loop
  /// housekeeping), or all of them (`all`, at Stop).
  void ReapConnections(bool all);

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  ServerOptions options_;
  AdmissionController admission_;

  mutable std::mutex catalog_mu_;
  std::shared_ptr<Catalog> catalog_;

  mutable std::mutex metrics_mu_;
  MetricsRegistry metrics_;
  int64_t started_nanos_ = 0;

  std::mutex tokens_mu_;
  std::unordered_set<CancelToken*> tokens_;

  mutable std::mutex live_mu_;
  std::vector<std::shared_ptr<LiveQuery>> live_;

  QueryStore query_store_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  std::atomic<bool> stopping_{false};
  std::atomic<int> active_sessions_{0};
  int next_session_id_ = 1;  // accept thread only
  int listen_fd_ = -1;
  int port_ = 0;
  int metrics_listen_fd_ = -1;
  int metrics_port_ = -1;
  std::thread accept_thread_;
  std::thread metrics_thread_;
  bool started_ = false;
};

}  // namespace orq

#endif  // ORQ_SERVER_SERVER_H_
