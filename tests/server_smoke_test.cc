// End-to-end server tests: K concurrent TCP sessions running the difftest
// generator's correlated-subquery mix must return byte-identical rows to a
// serial in-process Execute; deadlines surface as clean DeadlineExceeded
// errors over the wire; admission control sheds load as Unavailable; the
// \metrics admin command reports server counters. Also unit-tests the
// AdmissionController without sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "difftest/dataset.h"
#include "difftest/oracle.h"
#include "difftest/qgen.h"
#include "engine/engine.h"
#include "obs/json.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"

namespace orq {
namespace {

constexpr uint64_t kSeed = 20260808;

// ~2x10^9 join rows, and the cross-table expression keeps the
// local-aggregate rewrite from collapsing the cross join into per-table
// counts — minutes of work unless a deadline or Stop interrupts it.
const char kHugeCrossJoin[] =
    "SELECT MAX(l1.l_quantity + l2.l_quantity + l3.l_quantity + "
    "l4.l_quantity + l5.l_quantity) FROM lineitem l1, lineitem l2, "
    "lineitem l3, lineitem l4, lineitem l5";

std::shared_ptr<Catalog> SharedCatalog() {
  static std::shared_ptr<Catalog>* catalog = [] {
    auto c = std::make_shared<Catalog>();
    Status s = BuildDifftestCatalog(c.get(), kSeed);
    if (!s.ok()) ADD_FAILURE() << s.ToString();
    return new std::shared_ptr<Catalog>(std::move(c));
  }();
  return *catalog;
}

/// Rows of a serial Execute in the wire's canonical text form, in result
/// order — the reference the server replies are byte-compared against.
struct SerialRun {
  Status status = Status::OK();
  std::vector<std::string> rows;
};

SerialRun RunSerial(QueryEngine* engine, const std::string& sql) {
  SerialRun run;
  Result<QueryResult> result = engine->Execute(sql);
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  run.rows.reserve(result->rows.size());
  for (const Row& row : result->rows) run.rows.push_back(CanonicalRow(row));
  return run;
}

TEST(ServerSmokeTest, ConcurrentSessionsMatchSerialByteForByte) {
  constexpr int kSessions = 8;
  constexpr int kQueriesPerSession = 12;

  ServerOptions options;
  options.worker_threads = 4;
  options.admission.max_concurrent = 4;
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());

  // Per-session deterministic query streams (same derivation orq_loadgen
  // uses), plus the serial reference for every query, computed up front.
  std::vector<std::vector<std::string>> streams(kSessions);
  std::vector<std::vector<SerialRun>> expected(kSessions);
  QueryEngine serial(SharedCatalog().get());
  for (int s = 0; s < kSessions; ++s) {
    QueryGenerator generator(kSeed + 7919u * static_cast<uint64_t>(s));
    for (int q = 0; q < kQueriesPerSession; ++q) {
      std::string sql = RenderSql(generator.Generate());
      expected[static_cast<size_t>(s)].push_back(RunSerial(&serial, sql));
      streams[static_cast<size_t>(s)].push_back(std::move(sql));
    }
  }

  std::atomic<int> divergences{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Result<Client> connected = Client::Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        ADD_FAILURE() << "connect: " << connected.status().ToString();
        divergences.fetch_add(1000);
        return;
      }
      Client client = std::move(connected.value());
      for (int q = 0; q < kQueriesPerSession; ++q) {
        const std::string& sql = streams[static_cast<size_t>(s)][q];
        const SerialRun& want = expected[static_cast<size_t>(s)][q];
        Result<WireResult> got = client.Query(sql);
        if (want.status.ok() != got.ok()) {
          ADD_FAILURE() << "session " << s << " query " << q
                        << ": status mismatch (serial "
                        << want.status.ToString() << " vs server "
                        << (got.ok() ? "OK" : got.status().ToString())
                        << ")  sql: " << sql;
          divergences.fetch_add(1);
          continue;
        }
        if (!got.ok()) {
          // Both errored: engines agree (same engine, same catalog, so the
          // messages match too).
          if (got.status().message() != want.status.message()) {
            ADD_FAILURE() << "session " << s << " query " << q
                          << ": error text mismatch";
            divergences.fetch_add(1);
          }
          continue;
        }
        if (got->rows != want.rows) {
          ADD_FAILURE() << "session " << s << " query " << q
                        << ": rows differ (serial " << want.rows.size()
                        << " vs server " << got->rows.size()
                        << ")  sql: " << sql;
          divergences.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(divergences.load(), 0);
  server.Stop();
}

TEST(ServerSmokeTest, DeadlineSurfacesAsCleanTimeoutOverTheWire) {
  ServerOptions options;
  options.worker_threads = 2;
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());

  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected.value());

  ASSERT_TRUE(client.Set("timeout_ms", "50").ok());
  Result<WireResult> result = client.Query(kHugeCrossJoin);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  // The session survives the timeout and runs the next query normally.
  ASSERT_TRUE(client.Set("timeout_ms", "0").ok());
  Result<WireResult> ok = client.Query("SELECT COUNT(*) FROM nation");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->rows.size(), 1u);
  server.Stop();
}

TEST(ServerSmokeTest, SetChangesTakeEffectAndValidate) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  EXPECT_TRUE(client.Set("threads", "2").ok());
  EXPECT_TRUE(client.Set("exec", "row").ok());
  EXPECT_TRUE(client.Set("batch_size", "64").ok());
  Result<WireResult> result =
      client.Query("SELECT COUNT(*) FROM customer");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  Status bad = client.Set("threads", "-3");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  bad = client.Set("no_such_option", "1");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  // SET batch on|off is gone: exec is the one mode knob.
  bad = client.Set("batch", "off");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  server.Stop();
}

TEST(ServerSmokeTest, ExecModesAndThreadsOverTheWire) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());
  const std::string sql =
      "SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem "
      "GROUP BY l_returnflag";

  // The retired row-batch mode is refused by name, and the session keeps
  // serving in its default columnar mode.
  Status retired = client.Set("exec", "batch");
  ASSERT_EQ(retired.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retired.ToString().find("retired"), std::string::npos);
  Result<WireResult> columnar = client.Query(sql);
  ASSERT_TRUE(columnar.ok()) << columnar.status().ToString();

  // Row mode answers the same rows.
  ASSERT_TRUE(client.Set("exec", "row").ok());
  Result<WireResult> row = client.Query(sql);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  std::vector<std::string> expect = row->rows;
  std::sort(expect.begin(), expect.end());

  // Columnar composes with threads in either SET order: the exchange
  // moves column batches.
  ASSERT_TRUE(client.Set("threads", "2").ok());
  ASSERT_TRUE(client.Set("exec", "columnar").ok());
  Result<WireResult> parallel = client.Query(sql);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  std::vector<std::string> got = parallel->rows;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);

  // \history names each query's exec mode.
  Result<std::string> history = client.Admin("history 10");
  ASSERT_TRUE(history.ok());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(*history, &doc, &error)) << error;
  const JsonValue* queries = doc.Find("queries");
  ASSERT_NE(queries, nullptr);
  int named = 0;
  for (const JsonValue& entry : queries->array) {
    const std::string id = entry.StringOr("query_id", "");
    const std::string mode = entry.StringOr("exec_mode", "");
    if (id == columnar->query_id || id == parallel->query_id) {
      EXPECT_EQ(mode, "columnar") << id;
      ++named;
    } else if (id == row->query_id) {
      EXPECT_EQ(mode, "row") << id;
      ++named;
    }
  }
  EXPECT_EQ(named, 3) << *history;

  // Tables have one storage layout, so no session knob selects one.
  Status knob = client.Set("table_encoding", "dict");
  ASSERT_EQ(knob.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(knob.ToString().find("unknown SET option"), std::string::npos);
  server.Stop();
}

TEST(ServerSmokeTest, MetricsAdminReportsServerCounters) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM nation").ok());
  Result<std::string> metrics = client.Admin("metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("server.sessions_opened"), std::string::npos);
  EXPECT_NE(metrics->find("server.queries_ok"), std::string::npos);
  EXPECT_NE(metrics->find("server.queue_depth"), std::string::npos);

  Result<std::string> unknown = client.Admin("no_such_admin");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  server.Stop();
}

TEST(ServerSmokeTest, PreparedStatementsRoundTripOverTheWire) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  ASSERT_TRUE(client.Set("plan_cache", "on").ok());
  Result<WirePrepared> prepared = client.Prepare(
      "by_key",
      "SELECT c_name FROM customer WHERE c_custkey = ? ORDER BY c_name");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->param_types.size(), 1u);
  EXPECT_EQ(prepared->param_types[0], DataType::kInt64);
  EXPECT_EQ(prepared->columns, std::vector<std::string>{"c_name"});

  // Two executions with different parameter values, each byte-compared
  // against the literal spelling of the same query.
  for (int64_t key : {3, 7}) {
    Result<WireResult> via_execute =
        client.ExecutePrepared("by_key", {Value::Int64(key)});
    ASSERT_TRUE(via_execute.ok()) << via_execute.status().ToString();
    Result<WireResult> via_literal = client.Query(
        "SELECT c_name FROM customer WHERE c_custkey = " +
        std::to_string(key) + " ORDER BY c_name");
    ASSERT_TRUE(via_literal.ok());
    EXPECT_EQ(via_execute->columns, via_literal->columns);
    EXPECT_EQ(via_execute->rows, via_literal->rows);
  }

  // PREPARE warmed the plan cache, so the EXECUTE lane hit it; the server
  // aggregates the engine's cache counters into the admin metrics.
  Result<std::string> metrics = client.Admin("metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("plan_cache.hits"), std::string::npos);

  // Error paths: unknown name, wrong arity, double deallocate.
  Result<WireResult> unknown =
      client.ExecutePrepared("no_such_stmt", {Value::Int64(1)});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  Result<WireResult> wrong_arity = client.ExecutePrepared("by_key", {});
  ASSERT_FALSE(wrong_arity.ok());
  EXPECT_EQ(wrong_arity.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Deallocate("by_key").ok());
  Result<WireResult> gone =
      client.ExecutePrepared("by_key", {Value::Int64(3)});
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Deallocate("by_key").code(), StatusCode::kNotFound);
  server.Stop();
}

TEST(ServerSmokeTest, ReplaceCatalogBumpsVersionAndEvictsCachedPlans) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());
  ASSERT_TRUE(client.Set("plan_cache", "on").ok());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM nation").ok());

  // Re-installing a snapshot must bump its version, so plans cached
  // against the instance's previous contents can never be served again.
  auto snapshot = std::make_shared<Catalog>();
  ASSERT_TRUE(BuildDifftestCatalog(snapshot.get(), kSeed).ok());
  const int64_t before = snapshot->version();
  server.ReplaceCatalog(snapshot);
  EXPECT_GT(snapshot->version(), before);

  // The session's engine rebuilds against the new snapshot and queries
  // keep working (the first one recompiles; nothing stale survives).
  Result<WireResult> after = client.Query("SELECT COUNT(*) FROM nation");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  server.Stop();
}

TEST(ServerSmokeTest, WaiterCancelledInQueueIsCounted) {
  // One run slot: a long query parks in it, a second session with a short
  // deadline queues behind it and times out while still queued. That
  // waiter must land in server.cancelled_total — previously it vanished
  // from the admission books entirely.
  ServerOptions options;
  options.worker_threads = 1;
  options.admission.max_concurrent = 1;
  options.admission.max_queued = 4;
  options.default_timeout_ms = 2000;
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());

  Result<Client> slow = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  Client slow_client = std::move(slow.value());
  std::thread slow_thread([&slow_client] {
    Result<WireResult> result = slow_client.Query(kHugeCrossJoin);
    EXPECT_FALSE(result.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  Result<Client> queued = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(queued.ok());
  Client queued_client = std::move(queued.value());
  ASSERT_TRUE(queued_client.Set("timeout_ms", "100").ok());
  Result<WireResult> timed_out =
      queued_client.Query("SELECT COUNT(*) FROM nation");
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  Result<std::string> metrics = queued_client.Admin("metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("server.cancelled_total 1"), std::string::npos)
      << *metrics;

  slow_thread.join();
  server.Stop();
}

TEST(ServerSmokeTest, StopCancelsInFlightQueries) {
  ServerOptions options;
  options.worker_threads = 2;
  auto server = std::make_unique<QueryServer>(SharedCatalog(), options);
  ASSERT_TRUE(server->Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  std::thread stopper([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server->Stop();
  });
  // Minutes of work if not cancelled; Stop must unwind it promptly (the
  // reply may be a Cancelled error frame or a dropped connection,
  // depending on shutdown interleaving — both are clean outcomes).
  Result<WireResult> result = client.Query(kHugeCrossJoin);
  EXPECT_FALSE(result.ok());
  stopper.join();
}

TEST(ServerSmokeTest, QueryIdsAreStampedOnResultsAndErrors) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  Result<WireResult> ok = client.Query("SELECT COUNT(*) FROM nation");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->query_id, "s1q1");
  EXPECT_EQ(client.last_query_id(), "s1q1");

  Result<WireResult> bad = client.Query("SELECT FROM nowhere at all");
  ASSERT_FALSE(bad.ok());
  // The id rides its own wire field; the error text stays engine-pure.
  EXPECT_EQ(client.last_query_id(), "s1q2");
  EXPECT_EQ(bad.status().message().find("s1q2"), std::string::npos)
      << bad.status().message();

  // Non-query frames (SET, admin) do not consume query ids.
  ASSERT_TRUE(client.Set("threads", "0").ok());
  Result<WireResult> third = client.Query("SELECT COUNT(*) FROM part");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->query_id, "s1q3");
  server.Stop();
}

TEST(ServerSmokeTest, LiveQueriesShowProgressAndCancelByIdIsWireVisible) {
  ServerOptions options;
  options.worker_threads = 2;
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  Result<Client> runner = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(runner.ok());
  Client runner_client = std::move(runner.value());
  Result<Client> admin = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(admin.ok());
  Client admin_client = std::move(admin.value());

  // A completed query first, so \history later holds both outcomes.
  ASSERT_TRUE(runner_client.Query("SELECT COUNT(*) FROM nation").ok());
  const std::string ok_id = runner_client.last_query_id();
  ASSERT_FALSE(ok_id.empty());

  Status cancelled_status = Status::OK();
  std::thread runner_thread([&runner_client, &cancelled_status] {
    Result<WireResult> result = runner_client.Query(kHugeCrossJoin);
    cancelled_status =
        result.ok() ? Status::Internal("query unexpectedly succeeded")
                    : result.status();
  });

  // Poll \queries until the cross join shows up mid-execution with
  // nonzero row progress, then cancel it by id.
  std::string live_id;
  for (int spin = 0; spin < 500 && live_id.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Result<std::string> queries = admin_client.Admin("queries");
    ASSERT_TRUE(queries.ok()) << queries.status().ToString();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(ParseJson(*queries, &doc, &error)) << error << *queries;
    const JsonValue* list = doc.Find("queries");
    ASSERT_NE(list, nullptr);
    for (const JsonValue& entry : list->array) {
      if (entry.StringOr("sql", "").find("l5") == std::string::npos) {
        continue;
      }
      if (entry.StringOr("phase", "") == "execute" &&
          entry.NumberOr("rows", 0) > 0) {
        live_id = entry.StringOr("query_id", "");
        EXPECT_GE(entry.NumberOr("elapsed_ms", -1), 0) << *queries;
      }
    }
  }
  ASSERT_FALSE(live_id.empty()) << "cross join never showed progress";

  Result<std::string> cancel = admin_client.Admin("cancel " + live_id);
  ASSERT_TRUE(cancel.ok()) << cancel.status().ToString();
  EXPECT_NE(cancel->find(live_id), std::string::npos);
  runner_thread.join();
  EXPECT_EQ(cancelled_status.code(), StatusCode::kCancelled)
      << cancelled_status.ToString();
  EXPECT_EQ(runner_client.last_query_id(), live_id);

  // Cancelling a finished query is NotFound, not a crash.
  Result<std::string> again = admin_client.Admin("cancel " + live_id);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);

  // \history holds both records: the completed one with per-operator
  // est-vs-actual rows and phase timings, the cancelled one with its
  // outcome and the rows it produced before unwinding.
  Result<std::string> history = admin_client.Admin("history 10");
  ASSERT_TRUE(history.ok());
  std::string error;
  EXPECT_TRUE(ValidateJson(*history, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(*history, &doc, &error)) << error;
  const JsonValue* queries = doc.Find("queries");
  ASSERT_NE(queries, nullptr);
  bool saw_ok = false, saw_cancelled = false;
  for (const JsonValue& entry : queries->array) {
    if (entry.StringOr("query_id", "") == ok_id) {
      saw_ok = true;
      EXPECT_EQ(entry.StringOr("outcome", ""), "ok");
      const JsonValue* plan = entry.Find("plan");
      ASSERT_NE(plan, nullptr);
      EXPECT_NE(plan->Find("est_rows"), nullptr);
      EXPECT_NE(plan->Find("actual_rows"), nullptr);
      const JsonValue* profile = entry.Find("profile");
      ASSERT_NE(profile, nullptr);
      EXPECT_GT(profile->NumberOr("total_nanos", 0), 0);
    }
    if (entry.StringOr("query_id", "") == live_id) {
      saw_cancelled = true;
      EXPECT_EQ(entry.StringOr("outcome", ""), "cancelled");
      EXPECT_GT(entry.NumberOr("rows_produced", 0), 0);
      EXPECT_NE(entry.Find("profile"), nullptr);
    }
  }
  EXPECT_TRUE(saw_ok) << *history;
  EXPECT_TRUE(saw_cancelled) << *history;
  server.Stop();
}

TEST(ServerSmokeTest, MetricsJsonAndPromAdminFrames) {
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM nation").ok());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM part").ok());

  Result<std::string> json = client.Admin("metrics json");
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  std::string error;
  EXPECT_TRUE(ValidateJson(*json, &error)) << error << "\n" << *json;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(*json, &doc, &error)) << error;
  ASSERT_NE(doc.Find("engine"), nullptr);
  const JsonValue* server_gauges = doc.Find("server");
  ASSERT_NE(server_gauges, nullptr);
  EXPECT_EQ(server_gauges->NumberOr("server.sessions_active", -1), 1);
  EXPECT_EQ(server_gauges->NumberOr("server.query_store_recorded", -1), 2);

  Result<std::string> prom = client.Admin("metrics prom");
  ASSERT_TRUE(prom.ok()) << prom.status().ToString();
  EXPECT_NE(prom->find("# TYPE orq_server_queries_ok_total counter\n"
                       "orq_server_queries_ok_total 2\n"),
            std::string::npos)
      << *prom;
  EXPECT_NE(prom->find("# TYPE orq_server_query_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(prom->find("orq_server_query_latency_micros_bucket{le=\"+Inf\"}"
                       " 2\n"),
            std::string::npos)
      << *prom;
  EXPECT_NE(prom->find("# TYPE orq_server_sessions_active gauge"),
            std::string::npos);
  server.Stop();
}

TEST(ServerSmokeTest, HttpMetricsEndpointServesPrometheusText) {
  ServerOptions options;
  options.metrics_port = 0;  // ephemeral
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_port(), 0);
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());
  ASSERT_TRUE(client.Query("SELECT COUNT(*) FROM nation").ok());

  Result<std::string> body =
      HttpGet("127.0.0.1", server.metrics_port(), "/metrics");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_NE(body->find("orq_server_queries_ok_total 1\n"),
            std::string::npos)
      << *body;
  EXPECT_NE(body->find("orq_server_sessions_active 1\n"),
            std::string::npos);

  // Anything but /metrics is a 404 the client surfaces as an error.
  Result<std::string> missing =
      HttpGet("127.0.0.1", server.metrics_port(), "/nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("404"), std::string::npos)
      << missing.status().ToString();
  server.Stop();
}

TEST(ServerSmokeTest, SlowQueryThresholdCapturesExplainText) {
  ServerOptions options;
  options.worker_threads = 2;
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());

  // Deadline at ~150ms with a 50ms slow threshold: the timed-out cross
  // join is deterministically "slow" and must carry the captured
  // EXPLAIN ANALYZE text in its history record.
  ASSERT_TRUE(client.Set("timeout_ms", "150").ok());
  ASSERT_TRUE(client.Set("slow_query_ms", "50").ok());
  Result<WireResult> timed_out = client.Query(kHugeCrossJoin);
  ASSERT_FALSE(timed_out.ok());
  const std::string slow_id = client.last_query_id();
  ASSERT_FALSE(slow_id.empty());

  Result<std::string> history = client.Admin("history 5");
  ASSERT_TRUE(history.ok());
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(*history, &doc, &error)) << error;
  const JsonValue* queries = doc.Find("queries");
  ASSERT_NE(queries, nullptr);
  bool found = false;
  for (const JsonValue& entry : queries->array) {
    if (entry.StringOr("query_id", "") != slow_id) continue;
    found = true;
    EXPECT_EQ(entry.StringOr("outcome", ""), "deadline");
    const std::string slow_explain = entry.StringOr("slow_explain", "");
    EXPECT_NE(slow_explain.find("== Query " + slow_id + " =="),
              std::string::npos)
        << slow_explain;
  }
  EXPECT_TRUE(found) << *history;
  server.Stop();
}

TEST(AdmissionControllerTest, GrantsUpToLimitThenQueues) {
  AdmissionOptions options;
  options.max_concurrent = 2;
  options.max_queued = 4;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  EXPECT_EQ(admission.running(), 2);

  // Third caller queues until a slot frees.
  std::atomic<bool> third_admitted{false};
  std::thread waiter([&] {
    Status admitted = admission.Admit(nullptr);
    EXPECT_TRUE(admitted.ok());
    third_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_admitted.load());
  EXPECT_EQ(admission.queued(), 1);
  admission.Release();
  waiter.join();
  EXPECT_TRUE(third_admitted.load());
  EXPECT_EQ(admission.running(), 2);
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.running(), 0);
  EXPECT_GE(admission.peak_queued(), 1);
}

TEST(AdmissionControllerTest, RejectsWhenQueueIsFull) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 0;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  Status rejected = admission.Admit(nullptr);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(admission.rejected(), 1);
  admission.Release();
}

TEST(AdmissionControllerTest, QueuedWaiterHonorsCancelToken) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 4;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  CancelToken token;
  token.SetTimeoutMs(30);
  const Status waited = admission.Admit(&token);
  EXPECT_EQ(waited.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(admission.queued(), 0);  // the waiter removed itself
  admission.Release();
}

TEST(AdmissionControllerTest, ShutdownWakesWaitersWithUnavailable) {
  AdmissionOptions options;
  options.max_concurrent = 1;
  options.max_queued = 4;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Admit(nullptr).ok());
  std::thread waiter([&] {
    Status waited = admission.Admit(nullptr);
    EXPECT_EQ(waited.code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  admission.Shutdown();
  waiter.join();
  EXPECT_EQ(admission.Admit(nullptr).code(), StatusCode::kUnavailable);
}

TEST(ServerSmokeTest, OverloadedServerRejectsAtTheDoor) {
  // One slot, zero queue: with several slow queries in flight at once, at
  // least one arrival must be shed as Unavailable (kept deterministic by
  // parking one long query in the single slot first). The second input
  // asks admission for four slots on a one-worker server: worker_threads
  // clamps max_concurrent, so it must still shed the second query.
  for (const int max_concurrent : {1, 4}) {
    SCOPED_TRACE("max_concurrent=" + std::to_string(max_concurrent));
    ServerOptions options;
    options.worker_threads = 1;
    options.admission.max_concurrent = max_concurrent;
    options.admission.max_queued = 0;
    options.default_timeout_ms = 2000;  // the parked query self-cancels
    QueryServer server(SharedCatalog(), options);
    ASSERT_TRUE(server.Start().ok());

    Result<Client> slow = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(slow.ok());
    Client slow_client = std::move(slow.value());
    std::thread slow_thread([&slow_client] {
      // Holds the only run slot until its 2s deadline fires.
      Result<WireResult> result = slow_client.Query(kHugeCrossJoin);
      EXPECT_FALSE(result.ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    Result<Client> fast = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(fast.ok());
    Client fast_client = std::move(fast.value());
    Result<WireResult> rejected =
        fast_client.Query("SELECT COUNT(*) FROM nation");
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

    slow_thread.join();
    // Slot free again: the same session's next query is admitted.
    Result<WireResult> ok = fast_client.Query("SELECT COUNT(*) FROM nation");
    EXPECT_TRUE(ok.ok()) << ok.status().ToString();
    server.Stop();
  }
}

/// The `\history` records (newest first) as parsed JSON objects.
std::vector<JsonValue> HistoryRecords(Client* client) {
  Result<std::string> history = client->Admin("history 10");
  if (!history.ok()) {
    ADD_FAILURE() << history.status().ToString();
    return {};
  }
  JsonValue doc;
  std::string error;
  if (!ParseJson(*history, &doc, &error)) {
    ADD_FAILURE() << error << "\n" << *history;
    return {};
  }
  const JsonValue* queries = doc.Find("queries");
  if (queries == nullptr) {
    ADD_FAILURE() << *history;
    return {};
  }
  return queries->array;
}

TEST(ServerSmokeTest, SessionOnlySetKeepsThePlanCache) {
  // timeout_ms lives on the session and never reaches the engine, so
  // setting it must not rebuild the connection's engine and its plan cache.
  QueryServer server(SharedCatalog(), ServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Result<Client> connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected.value());
  ASSERT_TRUE(client.Set("plan_cache", "on").ok());
  const char kSql[] = "SELECT COUNT(*) FROM nation WHERE n_regionkey = 1";
  ASSERT_TRUE(client.Query(kSql).ok());
  ASSERT_TRUE(client.Set("timeout_ms", "5000").ok());
  ASSERT_TRUE(client.Query(kSql).ok());

  const std::vector<JsonValue> records = HistoryRecords(&client);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].StringOr("cache", ""), "miss");
  EXPECT_EQ(records[0].StringOr("cache", ""), "hit");
  server.Stop();
}

TEST(ServerSmokeTest, HistoryRecordsAdmissionWait) {
  // One run slot: a long query parks in it, a second query queues behind
  // it until the first is cancelled. The second query's record must
  // charge at least that queued time to admission_wait_us.
  ServerOptions options;
  options.worker_threads = 1;
  options.admission.max_concurrent = 1;
  options.admission.max_queued = 4;
  QueryServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());

  Result<Client> slow = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(slow.ok());
  Client slow_client = std::move(slow.value());
  std::thread slow_thread([&slow_client] {
    EXPECT_FALSE(slow_client.Query(kHugeCrossJoin).ok());
  });
  Result<Client> queued = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(queued.ok());
  Client queued_client = std::move(queued.value());
  Result<Client> admin = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(admin.ok());
  Client admin_client = std::move(admin.value());

  // Id of a live query that is (or, want_queued=false, is no longer)
  // waiting for admission, polled from \queries; empty after ~5s.
  auto await_live = [&admin_client](bool want_queued) {
    for (int spin = 0; spin < 500; ++spin) {
      Result<std::string> queries = admin_client.Admin("queries");
      JsonValue doc;
      std::string error;
      if (!queries.ok() || !ParseJson(*queries, &doc, &error)) break;
      for (const JsonValue& entry : doc.Find("queries")->array) {
        if ((entry.StringOr("phase", "") == "queued") == want_queued) {
          return entry.StringOr("query_id", "");
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return std::string();
  };
  const std::string slow_id = await_live(/*want_queued=*/false);
  ASSERT_FALSE(slow_id.empty()) << "cross join never started";
  std::thread queued_thread([&queued_client] {
    Result<WireResult> result =
        queued_client.Query("SELECT COUNT(*) FROM nation");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  ASSERT_FALSE(await_live(/*want_queued=*/true).empty());
  const auto queued_at = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto released_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(admin_client.Admin("cancel " + slow_id).ok());
  slow_thread.join();
  queued_thread.join();

  // A query is listed just before it enters Admit; allow for that gap.
  const int64_t margin_us = 5000;
  const int64_t queued_us =
      std::chrono::duration_cast<std::chrono::microseconds>(released_at -
                                                            queued_at)
          .count();
  // Either query may land in the store first: the freed slot lets the
  // queued one finish while the cancelled one is still recording.
  const std::vector<JsonValue> records = HistoryRecords(&admin_client);
  ASSERT_EQ(records.size(), 2u);
  for (const JsonValue& record : records) {
    const std::string id = record.StringOr("query_id", "");
    if (id == slow_id) {
      EXPECT_LT(record.NumberOr("admission_wait_us", -1), queued_us);
    } else {
      EXPECT_EQ(id, queued_client.last_query_id());
      EXPECT_GE(record.NumberOr("admission_wait_us", -1),
                queued_us - margin_us);
    }
  }
  server.Stop();
}

}  // namespace
}  // namespace orq
