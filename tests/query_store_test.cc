// QueryStore tests: ring-buffer eviction order, newest-first Tail, JSON
// well-formedness of records and history envelopes, outcome mapping, and
// a concurrent-writer hammer that gives TSan something to chew on (the
// store is shared by every connection thread in the server).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/query_store.h"

namespace orq {
namespace {

QueryRecord MakeRecord(const std::string& id) {
  QueryRecord record;
  record.query_id = id;
  record.session_id = 1;
  record.sql = "SELECT 1";
  record.exec_mode = "columnar";
  return record;
}

TEST(QueryStoreTest, FillsThenEvictsOldestFirst) {
  QueryStore store(4);
  for (int i = 1; i <= 6; ++i) {
    store.Record(MakeRecord("q" + std::to_string(i)));
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.capacity(), 4u);
  EXPECT_EQ(store.total_recorded(), 6);
  // q1/q2 were overwritten; the tail is newest first.
  std::vector<QueryRecord> tail = store.Tail(10);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail[0].query_id, "q6");
  EXPECT_EQ(tail[1].query_id, "q5");
  EXPECT_EQ(tail[2].query_id, "q4");
  EXPECT_EQ(tail[3].query_id, "q3");
  // A smaller limit trims from the old end, not the new one.
  tail = store.Tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].query_id, "q6");
  EXPECT_EQ(tail[1].query_id, "q5");
}

TEST(QueryStoreTest, TailOnPartiallyFilledRing) {
  QueryStore store(8);
  store.Record(MakeRecord("q1"));
  store.Record(MakeRecord("q2"));
  store.Record(MakeRecord("q3"));
  std::vector<QueryRecord> tail = store.Tail(8);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].query_id, "q3");
  EXPECT_EQ(tail[1].query_id, "q2");
  EXPECT_EQ(tail[2].query_id, "q1");
  EXPECT_TRUE(store.Tail(0).empty());
}

TEST(QueryStoreTest, EightConcurrentWritersKeepTheRingConsistent) {
  // Ring smaller than the total write volume, so writers continuously
  // overwrite each other's slots — the interesting interleaving for TSan
  // (this test runs under ci.sh's TSan suite).
  QueryStore store(64);
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 250;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        QueryRecord record = MakeRecord(
            "s" + std::to_string(w) + "q" + std::to_string(i));
        // Concurrent readers while writing: Tail copies records out under
        // the lock, so holding the result is safe while writes continue.
        if (i % 50 == 0) {
          std::vector<QueryRecord> tail = store.Tail(8);
          for (const QueryRecord& r : tail) {
            ASSERT_FALSE(r.query_id.empty());
          }
        }
        store.Record(std::move(record));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(store.size(), 64u);
  EXPECT_EQ(store.total_recorded(), kWriters * kPerWriter);
  std::vector<QueryRecord> tail = store.Tail(64);
  ASSERT_EQ(tail.size(), 64u);
  for (const QueryRecord& record : tail) {
    EXPECT_FALSE(record.query_id.empty());
    EXPECT_EQ(record.sql, "SELECT 1");
  }
}

TEST(QueryStoreTest, RecordAndHistoryJsonAreWellFormed) {
  QueryRecord record = MakeRecord("s1q1");
  record.sql = "SELECT \"quoted\"\nAND newline \\ backslash";
  record.fingerprint = FingerprintHex(record.sql);
  record.outcome = QueryOutcome::kError;
  record.error_message = "bind: no such column \"x\"";
  record.admission_wait_us = 567;
  record.wall_micros = 1234;
  record.has_plan = true;
  record.plan.name = "HashJoin(inner)";
  record.plan.est_rows = 42.5;
  record.plan.stats.rows_out = 40;
  record.plan.stats.peak_cardinality = 99;
  PlanStatsNode child;
  child.name = "Scan(t)";
  child.stats.peak_cardinality = 7;
  record.plan.children.push_back(child);
  record.slow_explain = "== Query s1q1 ==\nphase lines\n";

  const std::string json = QueryRecordJson(record);
  std::string error;
  EXPECT_TRUE(ValidateJson(json, &error)) << error << "\n" << json;

  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.StringOr("query_id", ""), "s1q1");
  EXPECT_EQ(doc.StringOr("outcome", ""), "error");
  EXPECT_EQ(doc.StringOr("sql", ""), record.sql);
  EXPECT_EQ(doc.NumberOr("admission_wait_us", 0), 567);
  EXPECT_EQ(doc.NumberOr("wall_micros", 0), 1234);
  ASSERT_NE(doc.Find("plan"), nullptr);
  ASSERT_NE(doc.Find("profile"), nullptr);
  ASSERT_NE(doc.Find("slow_explain"), nullptr);

  QueryStore store(4);
  store.Record(record);
  store.Record(MakeRecord("s1q2"));
  const std::string history =
      QueryHistoryJson(store.Tail(8), store.total_recorded(),
                       store.capacity());
  EXPECT_TRUE(ValidateJson(history, &error)) << error << "\n" << history;
  ASSERT_TRUE(ParseJson(history, &doc, &error)) << error;
  EXPECT_EQ(doc.NumberOr("total_recorded", 0), 2);
  EXPECT_EQ(doc.NumberOr("capacity", 0), 4);
  EXPECT_EQ(doc.NumberOr("returned", 0), 2);
  const JsonValue* queries = doc.Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->array.size(), 2u);
  EXPECT_EQ(queries->array[0].StringOr("query_id", ""), "s1q2");
  EXPECT_EQ(queries->array[1].StringOr("query_id", ""), "s1q1");
  // The ok record has no error/plan/slow_explain members at all.
  EXPECT_EQ(queries->array[0].Find("error"), nullptr);
  EXPECT_EQ(queries->array[0].Find("plan"), nullptr);
}

TEST(QueryStoreTest, OutcomeMappingAndPeakCardinality) {
  EXPECT_EQ(OutcomeForStatus(Status::OK()), QueryOutcome::kOk);
  EXPECT_EQ(OutcomeForStatus(Status::Cancelled("c")),
            QueryOutcome::kCancelled);
  EXPECT_EQ(OutcomeForStatus(Status::DeadlineExceeded("d")),
            QueryOutcome::kDeadline);
  EXPECT_EQ(OutcomeForStatus(Status::Unavailable("u")),
            QueryOutcome::kRejected);
  EXPECT_EQ(OutcomeForStatus(Status::RuntimeError("r")),
            QueryOutcome::kError);
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kDeadline), "deadline");

  PlanStatsNode root;
  root.stats.peak_cardinality = 10;
  PlanStatsNode mid;
  mid.stats.peak_cardinality = 50;
  PlanStatsNode leaf;
  leaf.stats.peak_cardinality = 20;
  mid.children.push_back(leaf);
  root.children.push_back(mid);
  EXPECT_EQ(MaxPeakCardinality(root), 50);
}

TEST(QueryStoreTest, FingerprintIsStableFnv1a64) {
  // FNV-1a 64 of the empty string is the offset basis.
  EXPECT_EQ(FingerprintHex(""), "cbf29ce484222325");
  // Known vector: FNV-1a 64 of "a".
  EXPECT_EQ(FingerprintHex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(FingerprintHex("SELECT 1").size(), 16u);
  EXPECT_NE(FingerprintHex("SELECT 1"), FingerprintHex("SELECT 2"));
}

}  // namespace
}  // namespace orq
