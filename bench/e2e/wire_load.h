#ifndef ORQ_BENCH_E2E_WIRE_LOAD_H_
#define ORQ_BENCH_E2E_WIRE_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace orq::bench {

/// The server's worker threads and admission slots: two, so a four-core
/// machine keeps cores free for the client threads in the same process.
inline constexpr int kServerSlots = 2;

/// Catalog swaps in the plan-cache workload are two seconds apart: each
/// costs every connection one recompile per cached plan, and at one a
/// second those recompiles make up about 1% of requests, which would put
/// the p99 rank right on the boundary between hits and misses.
inline constexpr int64_t kSwapIntervalNanos = 2000000000;

/// A window is reported as the median over this many equal sub-windows, so
/// a few seconds of interference from outside the process move one
/// sub-window, not the result.
inline constexpr int kSubWindows = 5;

/// Each connection keeps at most this many samples per window. When full
/// it drops every other one and halves its sampling rate, so what it
/// keeps stays a uniform subsample and the benchmark's own memory, which
/// `rss_peak_mb` includes, does not grow with throughput or window length.
inline constexpr size_t kMaxSamplesPerConnection = 16384;

/// Each connection also remembers the ids of its last this-many requests,
/// for joining against `\history 256`.
inline constexpr size_t kRecentPerConnection = 256;

/// One answered (or failed) request as the client saw it.
struct Sample {
  /// Closed loop: send to reply. Open loop: due time to reply, so a stall
  /// also charges the requests that queued behind it.
  int64_t latency_nanos = 0;
  /// Send to reply, in both loops.
  int64_t round_trip_nanos = 0;
  /// When the reply arrived (ObsNowNanos timeline).
  int64_t done_nanos = 0;
};

/// A recent request's server-minted id and its round trip.
struct RecentQuery {
  std::string query_id;
  int64_t round_trip_nanos = 0;
};

/// What one measured window produced.
struct WindowResult {
  /// A uniform subsample of the requests (see kMaxSamplesPerConnection).
  std::vector<Sample> samples;
  std::vector<RecentQuery> recent;
  /// Open loop: how late each request was sent after its due time.
  std::vector<int64_t> lag_nanos;
  int64_t attempted = 0;
  int64_t errors = 0;      // error frames
  int64_t timeouts = 0;    // session deadline or cancel
  int64_t rejected = 0;    // admission refused
  int64_t transport = 0;   // connection lost
  int64_t mismatches = 0;  // answer differs from the reference
  int swaps = 0;           // catalog snapshot swaps during the window
  /// kSubWindows equal sub-windows: their kSubWindows + 1 boundaries, the
  /// process's user+sys CPU seconds at each (server and clients share
  /// this process), and the exact count of successful replies in each.
  /// The last boundary is when the last reply arrived.
  std::vector<int64_t> bound_nanos;
  std::vector<double> cpu_s;
  std::vector<int64_t> completed_in;

  double elapsed_s() const {
    return static_cast<double>(bound_nanos.back() - bound_nanos.front()) / 1e9;
  }
  int64_t failed() const {
    return errors + timeouts + rejected + transport + mismatches;
  }
  int64_t completed() const { return attempted - failed(); }
};

/// A self-hosted QueryServer plus the workload's client connections. The
/// server runs the default engine options on kServerSlots workers and
/// admission slots; each connection is one blocking orq::Client.
class WireLoad {
 public:
  /// One cold set-up: catalog generation, statistics, server start, and
  /// the connections with their SETs. `queries` must outlive the load;
  /// `seed` draws each closed-loop connection's visit order.
  static Result<std::unique_ptr<WireLoad>> SetUp(
      const Workload& workload, uint64_t seed,
      const std::vector<BenchQuery>* queries, CatalogTiming* timing);

  ~WireLoad();
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  /// Builds the spare snapshot the plan-cache workload swaps in (outside
  /// every timed interval).
  Status PrepareSwaps();

  /// Drives the workload for `seconds`. Closed-loop connections resume
  /// their visit order where the previous window stopped, and keep going
  /// past `seconds` (up to twice it) until `min_requests` were sent, so a
  /// slower build still yields a valid p99 instead of a failed run.
  /// Open-loop arrivals are drawn from `arrival_seed`.
  WindowResult Run(double seconds, uint64_t arrival_seed,
                   int64_t min_requests = 0);

  /// Sends every query once, in order, over the first connection: the
  /// result check on its own.
  WindowResult RunEachOnce();

  /// An admin command over the first connection (between windows only).
  Result<std::string> Admin(const std::string& command);

  std::shared_ptr<Catalog> catalog() const {
    return server_->CatalogSnapshot();
  }

 private:
  /// Closed loop: each cycle visits every query once, in an order drawn
  /// from the connection's seeded generator.
  struct Connection {
    Client client;
    std::vector<int> order;
    size_t cursor = 0;
    uint64_t rng = 0;
  };
  struct Tally;

  WireLoad(const Workload& workload, const std::vector<BenchQuery>* queries)
      : workload_(workload), queries_(queries) {}

  /// Sends one query and accounts the reply into `tally`; false when the
  /// connection is gone.
  bool Send(Connection* connection, int query, int64_t due_nanos,
            Tally* tally);

  const Workload& workload_;
  const std::vector<BenchQuery>* queries_;
  std::unique_ptr<QueryServer> server_;
  std::vector<Connection> connections_;
  std::shared_ptr<Catalog> spare_;
};

}  // namespace orq::bench

#endif  // ORQ_BENCH_E2E_WIRE_LOAD_H_
