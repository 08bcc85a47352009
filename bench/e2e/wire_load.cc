#include "wire_load.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/stats.h"

namespace orq::bench {

namespace {

/// Every session's deadline: a hang becomes a counted failure, not a stall.
constexpr const char* kSessionTimeoutMs = "10000";

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

std::chrono::steady_clock::time_point AtNanos(int64_t nanos) {
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(nanos));
}

/// Seeded Fisher-Yates shuffle.
void Shuffle(std::vector<int>* items, uint64_t* state) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[SplitMix64(state) % i]);
  }
}

struct Arrival {
  int64_t offset_nanos = 0;
  int query = 0;
};

/// Poisson arrival times at `rate` over [0, seconds), each assigned a query
/// of the open-loop mix.
std::vector<Arrival> PoissonArrivals(const std::vector<BenchQuery>& queries,
                                     double rate, double seconds,
                                     uint64_t seed) {
  std::vector<int> short_queries;
  std::vector<int> long_queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    (queries[i].long_query ? long_queries : short_queries)
        .push_back(static_cast<int>(i));
  }
  std::vector<Arrival> arrivals;
  uint64_t state = seed;
  double t = 0.0;
  while (true) {
    const double u = static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= seconds) break;
    arrivals.push_back({static_cast<int64_t>(t * 1e9), 0});
  }
  // Exactly one arrival in ten is long and each query gets an equal share
  // of its class, in a seeded order: the seed moves the schedule, not the
  // mix.
  std::vector<int> mix(arrivals.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    mix[i] = i % 10 == 0 ? long_queries[(i / 10) % long_queries.size()]
                         : short_queries[(i - i / 10 - 1) % short_queries.size()];
  }
  Shuffle(&mix, &state);
  for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i].query = mix[i];
  return arrivals;
}

void Merge(WindowResult* into, WindowResult* part) {
  into->samples.insert(into->samples.end(), part->samples.begin(),
                       part->samples.end());
  for (RecentQuery& recent : part->recent) {
    into->recent.push_back(std::move(recent));
  }
  into->lag_nanos.insert(into->lag_nanos.end(), part->lag_nanos.begin(),
                         part->lag_nanos.end());
  into->attempted += part->attempted;
  into->errors += part->errors;
  into->timeouts += part->timeouts;
  into->rejected += part->rejected;
  into->transport += part->transport;
  into->mismatches += part->mismatches;
  for (size_t k = 0; k < into->completed_in.size(); ++k) {
    into->completed_in[k] += part->completed_in[k];
  }
}

}  // namespace

/// One connection's accounting for one window.
struct WireLoad::Tally {
  Tally(int64_t start_nanos, int64_t end_nanos)
      : start(start_nanos), span(std::max<int64_t>(end_nanos - start_nanos, 1)) {
    result.samples.reserve(kMaxSamplesPerConnection);
    result.completed_in.assign(kSubWindows, 0);
  }

  int SubWindow(int64_t done_nanos) const {
    return static_cast<int>(std::clamp<int64_t>(
        (done_nanos - start) * kSubWindows / span, 0, kSubWindows - 1));
  }

  /// Keeps every stride-th sample; when full, keeps the even positions
  /// (the multiples of twice the stride) and doubles the stride.
  void Keep(const Sample& sample, const std::string& query_id) {
    RecentQuery recent{query_id, sample.round_trip_nanos};
    if (result.recent.size() < kRecentPerConnection) {
      result.recent.push_back(std::move(recent));
    } else {
      result.recent[next_recent] = std::move(recent);
    }
    next_recent = (next_recent + 1) % kRecentPerConnection;

    const int64_t index = seen++;
    if (index % stride != 0) return;
    if (result.samples.size() == kMaxSamplesPerConnection) {
      size_t kept = 0;
      for (size_t i = 0; i < result.samples.size(); i += 2) {
        result.samples[kept++] = result.samples[i];
      }
      result.samples.resize(kept);
      stride *= 2;
      if (index % stride != 0) return;
    }
    result.samples.push_back(sample);
  }

  WindowResult result;
  const int64_t start;
  const int64_t span;
  int64_t seen = 0;
  int64_t stride = 1;
  size_t next_recent = 0;
};

Result<std::unique_ptr<WireLoad>> WireLoad::SetUp(
    const Workload& workload, uint64_t seed,
    const std::vector<BenchQuery>* queries, CatalogTiming* timing) {
  std::unique_ptr<WireLoad> load(new WireLoad(workload, queries));
  ORQ_ASSIGN_OR_RETURN(std::shared_ptr<Catalog> catalog,
                       BuildCatalog(workload.catalog, timing));
  ServerOptions options;
  options.worker_threads = kServerSlots;
  options.admission.max_concurrent = kServerSlots;
  load->server_ = std::make_unique<QueryServer>(std::move(catalog), options);
  ORQ_RETURN_IF_ERROR(load->server_->Start());
  for (int i = 0; i < workload.connections; ++i) {
    ORQ_ASSIGN_OR_RETURN(Client client,
                         Client::Connect("127.0.0.1", load->server_->port()));
    ORQ_RETURN_IF_ERROR(client.Set("timeout_ms", kSessionTimeoutMs));
    if (workload.plan_cache) {
      ORQ_RETURN_IF_ERROR(client.Set("plan_cache", "on"));
    }
    std::vector<int> order(queries->size());
    for (size_t q = 0; q < order.size(); ++q) order[q] = static_cast<int>(q);
    load->connections_.push_back(
        {std::move(client), std::move(order), queries->size(),
         seed ^ (0x51ed27ull * static_cast<uint64_t>(i + 1))});
  }
  return load;
}

WireLoad::~WireLoad() {
  connections_.clear();  // disconnect before the server goes down
  if (server_ != nullptr) server_->Stop();
}

Status WireLoad::PrepareSwaps() {
  CatalogTiming unused;
  ORQ_ASSIGN_OR_RETURN(spare_, BuildCatalog(workload_.catalog, &unused));
  return Status::OK();
}

Result<std::string> WireLoad::Admin(const std::string& command) {
  return connections_.front().client.Admin(command);
}

bool WireLoad::Send(Connection* connection, int query, int64_t due_nanos,
                    Tally* tally) {
  const BenchQuery& expected = (*queries_)[static_cast<size_t>(query)];
  const int64_t sent = ObsNowNanos();
  Result<WireResult> reply = connection->client.Query(expected.sql);
  const int64_t done = ObsNowNanos();
  Sample sample;
  sample.latency_nanos = done - (due_nanos > 0 ? due_nanos : sent);
  sample.round_trip_nanos = done - sent;
  sample.done_nanos = done;
  const std::string& query_id = connection->client.last_query_id();
  WindowResult& out = tally->result;
  ++out.attempted;
  if (due_nanos > 0) out.lag_nanos.push_back(sent - due_nanos);

  // The answer is checked after the latency stamp, so checking costs the
  // client's time, not the measured latency.
  bool alive = true;
  if (reply.ok()) {
    if (static_cast<int64_t>(reply->rows.size()) != expected.rows ||
        BagHash(reply->rows) != expected.hash) {
      ++out.mismatches;
      std::fprintf(stderr,
                   "orq_bench: result mismatch on %s [%s]: %zu row(s), "
                   "expected %lld\n",
                   expected.id.c_str(), query_id.c_str(), reply->rows.size(),
                   static_cast<long long>(expected.rows));
    } else {
      ++out.completed_in[static_cast<size_t>(tally->SubWindow(done))];
    }
  } else {
    switch (reply.status().code()) {
      case StatusCode::kCancelled:
      case StatusCode::kDeadlineExceeded:
        ++out.timeouts;
        break;
      case StatusCode::kUnavailable:
        // A refused admission leaves the connection usable; a dead
        // transport also reads Unavailable, so probe it.
        if (connection->client.Ping().ok()) {
          ++out.rejected;
        } else {
          ++out.transport;
          alive = false;
        }
        break;
      default:
        ++out.errors;
        break;
    }
    std::fprintf(stderr, "orq_bench: %s [%s] failed: %s\n",
                 expected.id.c_str(), query_id.c_str(),
                 reply.status().ToString().c_str());
  }
  tally->Keep(sample, query_id);
  return alive;
}

WindowResult WireLoad::RunEachOnce() {
  Tally tally(ObsNowNanos(), ObsNowNanos() + 1);
  for (size_t q = 0; q < queries_->size(); ++q) {
    if (!Send(&connections_.front(), static_cast<int>(q), 0, &tally)) break;
  }
  return std::move(tally.result);
}

WindowResult WireLoad::Run(double seconds, uint64_t arrival_seed,
                           int64_t min_requests) {
  const size_t n = connections_.size();
  std::vector<Arrival> arrivals;
  if (workload_.open_loop) {
    arrivals = PoissonArrivals(*queries_, workload_.rate_qps, seconds,
                               arrival_seed);
  }
  std::atomic<size_t> next_arrival{0};
  std::atomic<int64_t> issued{0};

  WindowResult result;
  result.completed_in.assign(kSubWindows, 0);
  result.cpu_s.push_back(ProcessCpuSeconds());
  const int64_t start = ObsNowNanos();
  result.bound_nanos.push_back(start);
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t hard_end = end + (end - start);
  std::vector<Tally> tallies;
  tallies.reserve(n);
  for (size_t i = 0; i < n; ++i) tallies.emplace_back(start, end);

  std::mutex swap_mu;
  std::condition_variable swap_cv;
  bool stop_swaps = false;
  int swaps = 0;
  std::thread swapper;
  if (workload_.plan_cache && spare_ != nullptr) {
    // The catalog swap is this system's only write: it bumps the catalog
    // version, so every cached plan recompiles once.
    swapper = std::thread([&] {
      int64_t next_swap = start + kSwapIntervalNanos;
      std::unique_lock<std::mutex> lock(swap_mu);
      while (!swap_cv.wait_until(lock, AtNanos(next_swap),
                                 [&] { return stop_swaps; })) {
        std::shared_ptr<Catalog> current = server_->CatalogSnapshot();
        server_->ReplaceCatalog(spare_);
        spare_ = std::move(current);
        ++swaps;
        next_swap += kSwapIntervalNanos;
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Connection& connection = connections_[i];
      Tally& mine = tallies[i];
      if (workload_.open_loop) {
        for (size_t a = next_arrival.fetch_add(1); a < arrivals.size();
             a = next_arrival.fetch_add(1)) {
          const int64_t due = start + arrivals[a].offset_nanos;
          std::this_thread::sleep_until(AtNanos(due));
          if (!Send(&connection, arrivals[a].query, due, &mine)) return;
        }
        return;
      }
      for (int64_t now = ObsNowNanos();
           now < end || (issued.load() < min_requests && now < hard_end);
           now = ObsNowNanos()) {
        issued.fetch_add(1);
        // A fresh order every cycle: which queries the two connections
        // run side by side changes from cycle to cycle instead of staying
        // the one pairing a single seeded order would fix for the run.
        if (connection.cursor == connection.order.size()) {
          Shuffle(&connection.order, &connection.rng);
          connection.cursor = 0;
        }
        const int query = connection.order[connection.cursor++];
        if (!Send(&connection, query, 0, &mine)) return;
      }
    });
  }
  for (int k = 1; k < kSubWindows; ++k) {
    const int64_t bound = start + (end - start) * k / kSubWindows;
    std::this_thread::sleep_until(AtNanos(bound));
    result.bound_nanos.push_back(bound);
    result.cpu_s.push_back(ProcessCpuSeconds());
  }
  for (std::thread& thread : threads) thread.join();
  result.bound_nanos.push_back(std::max(ObsNowNanos(), end));
  result.cpu_s.push_back(ProcessCpuSeconds());
  if (swapper.joinable()) {
    {
      std::lock_guard<std::mutex> lock(swap_mu);
      stop_swaps = true;
    }
    swap_cv.notify_all();
    swapper.join();
  }
  result.swaps = swaps;
  for (Tally& tally : tallies) Merge(&result, &tally.result);
  return result;
}

}  // namespace orq::bench
