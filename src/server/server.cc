#include "server/server.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "difftest/oracle.h"
#include "obs/json.h"
#include "obs/stats.h"
#include "server/net.h"

namespace orq {

namespace {

/// Strips leading/trailing whitespace (admin command normalization).
std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<Catalog> catalog,
                         ServerOptions options)
    : options_(std::move(options)),
      admission_([&] {
        AdmissionOptions admission = options_.admission;
        admission.max_concurrent =
            std::max(1, std::min(admission.max_concurrent,
                                 std::max(1, options_.worker_threads)));
        return admission;
      }()),
      catalog_(std::move(catalog)),
      query_store_(std::max<size_t>(1, options_.query_store_capacity)) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  ORQ_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.host, options_.port));
  ORQ_ASSIGN_OR_RETURN(port_, BoundTcpPort(listen_fd_));
  if (options_.metrics_port >= 0) {
    Result<int> metrics_fd = ListenTcp(options_.host, options_.metrics_port);
    Result<int> metrics_port =
        metrics_fd.ok() ? BoundTcpPort(metrics_fd.value()) : Result<int>(-1);
    if (!metrics_fd.ok() || !metrics_port.ok()) {
      if (metrics_fd.ok()) CloseFd(metrics_fd.value());
      CloseFd(listen_fd_);
      listen_fd_ = -1;
      return metrics_fd.ok() ? metrics_port.status() : metrics_fd.status();
    }
    metrics_listen_fd_ = metrics_fd.value();
    metrics_port_ = metrics_port.value();
  }
  started_ = true;
  started_nanos_ = ObsNowNanos();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (metrics_listen_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  return Status::OK();
}

void QueryServer::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    // Still join the listener threads if a second caller raced the first.
    if (accept_thread_.joinable()) accept_thread_.join();
    if (metrics_thread_.joinable()) metrics_thread_.join();
    ReapConnections(/*all=*/true);
    return;
  }
  admission_.Shutdown();
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    for (CancelToken* token : tokens_) token->RequestCancel();
  }
  // Waking the listener: shutdown() unblocks poll/accept on some platforms;
  // the accept loop also polls stopping_ every 100ms, which bounds
  // shutdown latency regardless.
  if (listen_fd_ >= 0) ShutdownFd(listen_fd_);
  if (metrics_listen_fd_ >= 0) ShutdownFd(metrics_listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_listen_fd_ >= 0) {
    CloseFd(metrics_listen_fd_);
    metrics_listen_fd_ = -1;
  }
  // Kick every connection out of its blocking recv, then join.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ShutdownFd(conn->fd);
    }
  }
  ReapConnections(/*all=*/true);
}

std::shared_ptr<Catalog> QueryServer::CatalogSnapshot() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_;
}

void QueryServer::ReplaceCatalog(std::shared_ptr<Catalog> catalog) {
  // Every catalog instance is born with a process-unique version, but a
  // caller may re-install a snapshot it mutated offline — bump so any plan
  // cached against this instance's previous contents is invalidated.
  if (catalog != nullptr) catalog->BumpVersion();
  std::lock_guard<std::mutex> lock(catalog_mu_);
  catalog_ = std::move(catalog);
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<int> accepted = AcceptWithTimeout(listen_fd_, /*poll_ms=*/100);
    ReapConnections(/*all=*/false);
    if (!accepted.ok()) break;  // listener closed or fatal socket error
    const int fd = accepted.value();
    if (fd < 0) continue;
    if (stopping_.load(std::memory_order_relaxed)) {
      CloseFd(fd);
      break;
    }
    const int session_id = next_session_id_++;
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      metrics_.Add(MetricCounter::kServerSessionsOpened, 1);
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw, fd, session_id] {
      active_sessions_.fetch_add(1, std::memory_order_relaxed);
      ServeConnection(fd, session_id);
      active_sessions_.fetch_sub(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void QueryServer::MetricsLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<int> accepted =
        AcceptWithTimeout(metrics_listen_fd_, /*poll_ms=*/100);
    if (!accepted.ok()) break;  // listener closed or fatal socket error
    const int fd = accepted.value();
    if (fd < 0) continue;
    if (stopping_.load(std::memory_order_relaxed)) {
      CloseFd(fd);
      break;
    }
    // One request per connection, served inline on this thread: scrapes
    // arrive every few seconds and the body is small, so there is nothing
    // to pipeline. A ~2s read budget keeps a stuck client from wedging
    // the listener.
    std::string request;
    char chunk[4096];
    for (int spin = 0;
         spin < 20 && request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192;
         ++spin) {
      Result<int> got = RecvSome(fd, chunk, sizeof(chunk), /*poll_ms=*/100);
      if (!got.ok() || got.value() == 0) break;  // error or EOF
      if (got.value() < 0) continue;             // poll timeout, retry
      request.append(chunk, static_cast<size_t>(got.value()));
    }
    const size_t line_end = request.find("\r\n");
    const std::string line =
        line_end == std::string::npos ? request : request.substr(0, line_end);
    std::string reply;
    if (line.rfind("GET /metrics ", 0) == 0 || line == "GET /metrics") {
      const std::string body = MetricsPromText();
      reply = "HTTP/1.0 200 OK\r\n"
              "Content-Type: text/plain; version=0.0.4\r\n"
              "Content-Length: " + std::to_string(body.size()) +
              "\r\nConnection: close\r\n\r\n" + body;
    } else {
      const std::string body = "not found (try /metrics)\n";
      reply = "HTTP/1.0 404 Not Found\r\n"
              "Content-Type: text/plain\r\n"
              "Content-Length: " + std::to_string(body.size()) +
              "\r\nConnection: close\r\n\r\n" + body;
    }
    SendAll(fd, reply.data(), reply.size());
    CloseFd(fd);
  }
}

void QueryServer::ReapConnections(bool all) {
  // Collect joinable handles under the lock, join outside it (a connection
  // thread may be blocked in a long recv when all=true at Stop — it was
  // already woken via ShutdownFd, but the join can still take a moment).
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) CloseFd(conn->fd);
  }
}

void QueryServer::RegisterToken(CancelToken* token) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  tokens_.insert(token);
}

void QueryServer::UnregisterToken(CancelToken* token) {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  tokens_.erase(token);
}

void QueryServer::FinishLive(const std::shared_ptr<LiveQuery>& live) {
  UnregisterToken(&live->token);
  std::lock_guard<std::mutex> lock(live_mu_);
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (it->get() == live.get()) {
      live_.erase(it);
      break;
    }
  }
}

Status QueryServer::CancelQuery(const std::string& id) {
  // Copy the shared_ptr out under the lock: the query may finish (and drop
  // its registry entry) between our lookup and the RequestCancel call, and
  // the copy keeps the token alive across that race.
  std::shared_ptr<LiveQuery> target;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    for (const std::shared_ptr<LiveQuery>& live : live_) {
      if (live->id == id) {
        target = live;
        break;
      }
    }
  }
  if (target == nullptr) {
    return Status::NotFound("no in-flight query with id \"" + id +
                            "\" (it may have already finished)");
  }
  target->token.RequestCancel();
  return Status::OK();
}

void QueryServer::RecordQuery(QueryRecord record, int64_t slow_query_ms) {
  // The ring outlives the query's progress sink; never let the stored
  // profile point back at it.
  record.profile.live_phase = nullptr;
  if (slow_query_ms > 0 && record.wall_micros >= slow_query_ms * 1000) {
    std::string text = "== Query " + record.query_id + " ==\n";
    text += RenderProfile(record.profile, nullptr);
    if (record.has_plan) text += RenderPlanStats(record.plan);
    record.slow_explain = std::move(text);
  }
  query_store_.Record(std::move(record));
}

void QueryServer::EnsureEngine(Session* session,
                               std::unique_ptr<QueryEngine>* engine,
                               std::shared_ptr<Catalog>* engine_catalog,
                               int64_t* engine_generation) {
  std::shared_ptr<Catalog> snapshot = CatalogSnapshot();
  if (*engine == nullptr || *engine_catalog != snapshot ||
      *engine_generation != session->options_generation()) {
    *engine = std::make_unique<QueryEngine>(snapshot.get(),
                                            session->engine_options());
    *engine_catalog = snapshot;
    *engine_generation = session->options_generation();
  }
}

Result<WireResult> QueryServer::RunQuery(
    Session* session, std::unique_ptr<QueryEngine>* engine,
    std::shared_ptr<Catalog>* engine_catalog, int64_t* engine_generation,
    const std::string& sql, const std::vector<Value>* params,
    std::string* query_id_out) {
  const int64_t start_nanos = ObsNowNanos();

  // Register in the live-query table before admission, so `\queries` sees
  // work still waiting in the queue and `\cancel` can evict it from there.
  auto live = std::make_shared<LiveQuery>();
  live->id = session->NextQueryId();
  live->session_id = session->id();
  live->sql = sql;
  live->start_nanos = start_nanos;
  if (query_id_out != nullptr) *query_id_out = live->id;
  if (session->timeout_ms() > 0) {
    live->token.SetTimeoutMs(session->timeout_ms());
  }
  RegisterToken(&live->token);
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_.push_back(live);
  }
  // A server already stopping cancels this query before it runs anything.
  if (stopping_.load(std::memory_order_relaxed)) live->token.RequestCancel();

  const char* exec_mode =
      session->engine_options().exec.batched ? "columnar" : "row";

  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    metrics_.Observe(MetricHistogram::kAdmissionQueueDepth,
                     admission_.queued());
  }

  const int64_t admit_nanos = ObsNowNanos();
  Status admitted = admission_.Admit(&live->token);
  const int64_t admission_wait_us = (ObsNowNanos() - admit_nanos) / 1000;
  if (!admitted.ok()) {
    FinishLive(live);
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      if (admitted.code() == StatusCode::kUnavailable) {
        metrics_.Add(MetricCounter::kServerQueriesRejected, 1);
      } else {
        metrics_.Add(MetricCounter::kServerQueriesTimedOut, 1);
      }
    }
    QueryRecord rejected;
    rejected.query_id = live->id;
    rejected.session_id = session->id();
    rejected.sql = sql;
    rejected.exec_mode = exec_mode;
    rejected.outcome = OutcomeForStatus(admitted);
    rejected.error_message = admitted.message();
    rejected.submit_nanos = start_nanos;
    rejected.admission_wait_us = admission_wait_us;
    rejected.wall_micros = (ObsNowNanos() - start_nanos) / 1000;
    RecordQuery(std::move(rejected), session->slow_query_ms());
    return admitted;
  }

  // Pin the snapshot current at admission; rebuild the cached engine when
  // the session's options or the server's catalog moved underneath it.
  EnsureEngine(session, engine, engine_catalog, engine_generation);

  // Run on this connection's thread: admission is the one bound on
  // executing queries. The engine may fan out into its own exchange
  // workers; those live in the engine's pool.
  MetricsRegistry query_metrics;
  QueryObservation observe;
  observe.profile.query_id = live->id;
  observe.profile.live_phase = &live->progress.phase;
  ExecControl control;
  control.cancel = &live->token;
  control.metrics = &query_metrics;
  control.observe = &observe;
  control.progress_rows = &live->progress.rows;
  control.query_id = live->id;
  Result<QueryResult> result =
      params != nullptr ? (*engine)->ExecuteParams(sql, *params, control)
                        : (*engine)->Execute(sql, control);
  admission_.Release();
  session->CountQuery();

  const int64_t latency_micros = (ObsNowNanos() - start_nanos) / 1000;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    metrics_.MergeFrom(query_metrics);
    metrics_.Observe(MetricHistogram::kQueryLatencyMicros, latency_micros);
    if (result.ok()) {
      metrics_.Add(MetricCounter::kServerQueriesOk, 1);
    } else if (result.status().code() == StatusCode::kCancelled ||
               result.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_.Add(MetricCounter::kServerQueriesTimedOut, 1);
    } else {
      metrics_.Add(MetricCounter::kServerQueriesError, 1);
    }
  }

  QueryRecord record;
  record.query_id = live->id;
  record.session_id = session->id();
  record.sql = sql;
  record.fingerprint = observe.fingerprint;
  record.exec_mode = exec_mode;
  record.outcome =
      result.ok() ? QueryOutcome::kOk : OutcomeForStatus(result.status());
  if (!result.ok()) record.error_message = result.status().message();
  record.submit_nanos = start_nanos;
  record.admission_wait_us = admission_wait_us;
  record.wall_micros = latency_micros;
  record.result_rows =
      result.ok() ? static_cast<int64_t>(result.value().rows.size()) : 0;
  // A failed query still reports the rows it pushed before unwinding (the
  // executor's progress feed), which is what a cancel post-mortem wants.
  record.rows_produced =
      result.ok() ? result.value().rows_produced
                  : live->progress.rows.load(std::memory_order_relaxed);
  record.profile = observe.profile;
  record.has_plan = observe.has_plan;
  if (observe.has_plan) {
    record.plan = std::move(observe.plan);
    record.peak_cardinality = MaxPeakCardinality(record.plan);
  }
  RecordQuery(std::move(record), session->slow_query_ms());
  // Drop from the live table only after the record landed in the store, so
  // an observer polling `\queries` + `\history` never sees the query in
  // neither.
  FinishLive(live);

  if (!result.ok()) return result.status();

  WireResult wire;
  wire.query_id = live->id;
  wire.columns = result.value().column_names;
  wire.rows.reserve(result.value().rows.size());
  for (const Row& row : result.value().rows) {
    wire.rows.push_back(CanonicalRow(row));
  }
  wire.rows_produced = result.value().rows_produced;
  return wire;
}

void QueryServer::ServeConnection(int fd, int session_id) {
  Session session(session_id, options_.engine, options_.default_timeout_ms,
                  options_.default_slow_query_ms);
  std::unique_ptr<QueryEngine> engine;
  std::shared_ptr<Catalog> engine_catalog;
  int64_t engine_generation = -1;

  FrameDecoder decoder;
  std::string reply;
  while (!stopping_.load(std::memory_order_relaxed)) {
    Frame frame;
    Result<bool> got = RecvFrame(fd, &decoder, &frame);
    if (!got.ok() || !got.value()) break;  // protocol error or clean EOF
    reply.clear();
    switch (frame.type) {
      case FrameType::kQuery: {
        std::string query_id;
        Result<WireResult> result =
            RunQuery(&session, &engine, &engine_catalog, &engine_generation,
                     frame.payload, /*params=*/nullptr, &query_id);
        if (result.ok()) {
          reply = EncodeResult(result.value());
          if (!SendFrame(fd, FrameType::kResult, reply).ok()) return;
        } else {
          reply = EncodeError(result.status(), query_id);
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
        }
        break;
      }
      case FrameType::kSet: {
        Status applied = session.ApplySet(frame.payload);
        if (applied.ok()) {
          if (!SendFrame(fd, FrameType::kInfo, "SET ok").ok()) return;
        } else {
          reply = EncodeError(applied);
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
        }
        break;
      }
      case FrameType::kAdmin: {
        const std::string command = Trim(frame.payload);
        if (command == "metrics") {
          if (!SendFrame(fd, FrameType::kInfo, MetricsText()).ok()) return;
        } else if (command == "metrics json") {
          if (!SendFrame(fd, FrameType::kInfo, MetricsJsonText()).ok()) {
            return;
          }
        } else if (command == "metrics prom") {
          if (!SendFrame(fd, FrameType::kInfo, MetricsPromText()).ok()) {
            return;
          }
        } else if (command == "queries") {
          if (!SendFrame(fd, FrameType::kInfo, QueriesJsonText()).ok()) {
            return;
          }
        } else if (command == "history" ||
                   command.rfind("history ", 0) == 0) {
          size_t limit = 32;
          if (command.size() > 7) {
            const std::string arg = Trim(command.substr(7));
            char* end = nullptr;
            const long long n = std::strtoll(arg.c_str(), &end, 10);
            if (end == arg.c_str() || *end != '\0' || n < 0) {
              reply = EncodeError(Status::InvalidArgument(
                  "history expects a non-negative count, got: " + arg));
              if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
              break;
            }
            limit = static_cast<size_t>(n);
          }
          if (!SendFrame(fd, FrameType::kInfo, HistoryJsonText(limit))
                   .ok()) {
            return;
          }
        } else if (command.rfind("cancel ", 0) == 0) {
          const std::string id = Trim(command.substr(7));
          Status cancelled = CancelQuery(id);
          if (cancelled.ok()) {
            if (!SendFrame(fd, FrameType::kInfo, "CANCEL sent: " + id)
                     .ok()) {
              return;
            }
          } else {
            reply = EncodeError(cancelled);
            if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
          }
        } else if (command == "ping") {
          if (!SendFrame(fd, FrameType::kPong, "").ok()) return;
        } else {
          reply = EncodeError(Status::InvalidArgument(
              "unknown admin command \"" + command +
              "\" (known: metrics, metrics json, metrics prom, queries, "
              "history [n], cancel <id>, ping)"));
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
        }
        break;
      }
      case FrameType::kPing: {
        if (!SendFrame(fd, FrameType::kPong, frame.payload).ok()) return;
        break;
      }
      case FrameType::kPrepare: {
        Result<WirePrepare> prepare = DecodePrepare(frame.payload);
        if (!prepare.ok()) {
          reply = EncodeError(prepare.status());
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
          break;
        }
        // PREPARE compiles (validating the SQL and, with the plan cache
        // on, warming it so the first EXECUTE is already a hit) but takes
        // no admission slot: it executes nothing.
        EnsureEngine(&session, &engine, &engine_catalog,
                     &engine_generation);
        Result<QueryEngine::PreparedInfo> info =
            engine->Prepare(prepare.value().sql);
        if (!info.ok()) {
          reply = EncodeError(info.status());
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
          break;
        }
        PreparedStatement stmt;
        stmt.sql = prepare.value().sql;
        stmt.param_types = info.value().param_types;
        Status registered =
            session.RegisterPrepared(prepare.value().name, std::move(stmt));
        if (!registered.ok()) {
          reply = EncodeError(registered);
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
          break;
        }
        WirePrepared prepared;
        prepared.param_types = info.value().param_types;
        prepared.columns = info.value().output_names;
        reply = EncodePrepared(prepared);
        if (!SendFrame(fd, FrameType::kPrepared, reply).ok()) return;
        break;
      }
      case FrameType::kExecute: {
        Result<WireExecute> execute = DecodeExecute(frame.payload);
        if (!execute.ok()) {
          reply = EncodeError(execute.status());
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
          break;
        }
        const PreparedStatement* stmt =
            session.FindPrepared(execute.value().name);
        if (stmt == nullptr) {
          reply = EncodeError(Status::NotFound(
              "no prepared statement named \"" + execute.value().name +
              "\""));
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
          break;
        }
        std::string query_id;
        Result<WireResult> result =
            RunQuery(&session, &engine, &engine_catalog, &engine_generation,
                     stmt->sql, &execute.value().params, &query_id);
        if (result.ok()) {
          reply = EncodeResult(result.value());
          if (!SendFrame(fd, FrameType::kResult, reply).ok()) return;
        } else {
          reply = EncodeError(result.status(), query_id);
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
        }
        break;
      }
      case FrameType::kDeallocate: {
        const std::string name = Trim(frame.payload);
        if (session.DeallocatePrepared(name)) {
          if (!SendFrame(fd, FrameType::kInfo, "DEALLOCATE ok").ok()) return;
        } else {
          reply = EncodeError(Status::NotFound(
              "no prepared statement named \"" + name + "\""));
          if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
        }
        break;
      }
      default: {
        reply = EncodeError(
            Status::InvalidArgument("unexpected frame type from client"));
        if (!SendFrame(fd, FrameType::kError, reply).ok()) return;
        break;
      }
    }
  }
}

std::vector<PromGauge> QueryServer::ServerGauges() const {
  std::vector<PromGauge> gauges;
  auto add = [&gauges](const char* name, int64_t value) {
    PromGauge gauge;
    gauge.name = name;
    gauge.value = value;
    gauges.push_back(std::move(gauge));
  };
  add("server.sessions_active", active_sessions());
  add("server.queries_running", admission_.running());
  add("server.queue_depth", admission_.queued());
  add("server.queue_peak", admission_.peak_queued());
  add("server.admitted_total", admission_.admitted());
  add("server.rejected_total", admission_.rejected());
  add("server.cancelled_total", admission_.cancelled());
  add("server.uptime_ms", (ObsNowNanos() - started_nanos_) / 1000000);
  add("server.query_store_size", static_cast<int64_t>(query_store_.size()));
  add("server.query_store_capacity",
      static_cast<int64_t>(query_store_.capacity()));
  add("server.query_store_recorded", query_store_.total_recorded());
  return gauges;
}

std::string QueryServer::MetricsText() const {
  std::string out;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    out = RenderMetrics(metrics_);
  }
  for (const PromGauge& gauge : ServerGauges()) {
    out += gauge.name + " " + std::to_string(gauge.value) + "\n";
  }
  return out;
}

std::string QueryServer::MetricsJsonText() const {
  std::string out = "{\"engine\":";
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    out += MetricsToJson(metrics_);
  }
  out += ",\"server\":{";
  const std::vector<PromGauge> gauges = ServerGauges();
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ",";
    AppendJsonString(gauges[i].name, &out);
    out += ":" + std::to_string(gauges[i].value);
  }
  out += "}}";
  return out;
}

std::string QueryServer::MetricsPromText() const {
  MetricsRegistry snapshot;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    snapshot.MergeFrom(metrics_);
  }
  return RenderPrometheus(snapshot, ServerGauges());
}

std::string QueryServer::QueriesJsonText() const {
  std::vector<std::shared_ptr<LiveQuery>> snapshot;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    snapshot = live_;
  }
  const int64_t now = ObsNowNanos();
  std::string out = "{\"queries\":[";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const LiveQuery& live = *snapshot[i];
    if (i > 0) out += ",";
    out += "{\"query_id\":";
    AppendJsonString(live.id, &out);
    out += ",\"session\":" + std::to_string(live.session_id);
    out += ",\"sql\":";
    AppendJsonString(live.sql, &out);
    out +=
        ",\"elapsed_ms\":" + std::to_string((now - live.start_nanos) / 1000000);
    const int phase = live.progress.phase.load(std::memory_order_relaxed);
    out += ",\"phase\":";
    AppendJsonString(phase < 0 ? "queued"
                               : QueryPhaseName(static_cast<QueryPhase>(phase)),
                     &out);
    out += ",\"rows\":" +
           std::to_string(live.progress.rows.load(std::memory_order_relaxed));
    out += "}";
  }
  out += "]}";
  return out;
}

std::string QueryServer::HistoryJsonText(size_t limit) const {
  return QueryHistoryJson(query_store_.Tail(limit),
                          query_store_.total_recorded(),
                          query_store_.capacity());
}

}  // namespace orq
