#include "stream/window_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "sequential/radius.h"
#include "serving/delta_log.h"

namespace fkc {
namespace {

/// The keyed-arrival batching both sharded drivers share: buffers arrivals,
/// delivers them through IngestBatch in `batch_size` chunks, accumulates the
/// ingest wall time, and CHECKs every status (the drivers' schedules only
/// produce valid arrivals, so a rejection is a driver bug).
class KeyedBatchFeeder {
 public:
  KeyedBatchFeeder(serving::ShardManager* manager, int64_t batch_size,
                   double* update_seconds)
      : manager_(manager),
        batch_size_(batch_size),
        update_seconds_(update_seconds) {
    pending_.reserve(static_cast<size_t>(batch_size_));
  }

  void Add(std::string key, Point point) {
    pending_.push_back({std::move(key), std::move(point)});
    if (static_cast<int64_t>(pending_.size()) >= batch_size_) Flush();
  }

  void Flush() {
    if (pending_.empty()) return;
    Stopwatch timer;
    const Status status = manager_->IngestBatch(std::move(pending_));
    FKC_CHECK(status.ok()) << status.ToString();
    *update_seconds_ += timer.ElapsedMillis() / 1e3;
    pending_ = {};
    pending_.reserve(static_cast<size_t>(batch_size_));
  }

 private:
  serving::ShardManager* manager_;
  int64_t batch_size_;
  double* update_seconds_;
  std::vector<serving::KeyedPoint> pending_;
};

}  // namespace

BaselineAdapter::BaselineAdapter(std::string name,
                                 const FairCenterSolver* solver,
                                 const Metric* metric,
                                 ColorConstraint constraint,
                                 int64_t window_size)
    : name_(std::move(name)),
      solver_(solver),
      metric_(metric),
      constraint_(std::move(constraint)),
      window_(window_size) {}

Result<FairCenterSolution> BaselineAdapter::Query(QueryStats* stats) {
  if (stats != nullptr) {
    *stats = QueryStats{};
    stats->coreset_size = window_.size();
  }
  return window_.Query(*metric_, *solver_, constraint_);
}

WindowDriver::WindowDriver(const Metric* metric, ColorConstraint constraint,
                           int64_t window_size)
    : metric_(metric),
      constraint_(std::move(constraint)),
      window_size_(window_size) {
  FKC_CHECK(metric != nullptr);
  FKC_CHECK_GT(window_size, 0);
}

void WindowDriver::Add(std::unique_ptr<DrivenAlgorithm> algorithm) {
  algorithms_.push_back(std::move(algorithm));
}

void WindowDriver::AddBaseline(std::string name,
                               const FairCenterSolver* solver) {
  Add(std::make_unique<BaselineAdapter>(std::move(name), solver, metric_,
                                        constraint_, window_size_));
}

std::vector<AlgorithmReport> WindowDriver::Run(PointStream* stream,
                                               const DriverOptions& options) {
  FKC_CHECK_GT(options.stream_length, 0);
  FKC_CHECK_GT(options.num_queries, 0);
  FKC_CHECK_GT(options.query_stride, 0);
  FKC_CHECK_GT(options.update_batch_size, 0);
  FKC_CHECK(!algorithms_.empty());

  std::vector<MetricsRecorder> recorders;
  recorders.reserve(algorithms_.size());
  for (const auto& algo : algorithms_) recorders.emplace_back(algo->Name());

  // Ground-truth window for radius evaluation (harness-side only).
  ReferenceWindow truth(window_size_);

  const int64_t measure_from =
      options.stream_length - options.num_queries * options.query_stride + 1;

  // Arrivals awaiting dispatch; flushed per batch and before every measured
  // query so query positions do not depend on the batch size.
  std::vector<Point> pending;
  pending.reserve(static_cast<size_t>(options.update_batch_size));
  auto flush = [&]() {
    if (pending.empty()) return;
    for (size_t a = 0; a < algorithms_.size(); ++a) {
      Stopwatch timer;
      algorithms_[a]->UpdateBatch(pending);
      const int64_t per_point =
          timer.ElapsedNanos() / static_cast<int64_t>(pending.size());
      for (size_t j = 0; j < pending.size(); ++j) {
        recorders[a].RecordUpdateNanos(per_point);
      }
    }
    pending.clear();
  };

  for (int64_t t = 1; t <= options.stream_length; ++t) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value())
        << "stream exhausted at t=" << t << "; need " << options.stream_length;
    Point p = std::move(*next);
    p.arrival = t;
    p.id = static_cast<uint64_t>(t);
    truth.Update(p);

    const bool measure =
        t >= measure_from && (t - measure_from) % options.query_stride == 0;

    if (options.update_batch_size == 1) {
      for (size_t a = 0; a < algorithms_.size(); ++a) {
        Stopwatch timer;
        algorithms_[a]->Update(p);
        recorders[a].RecordUpdateNanos(timer.ElapsedNanos());
      }
    } else {
      pending.push_back(std::move(p));
      if (static_cast<int64_t>(pending.size()) >= options.update_batch_size ||
          measure || t == options.stream_length) {
        flush();
      }
    }

    if (!measure) continue;

    const std::vector<Point> window_points = truth.Snapshot();
    std::vector<double> radii(algorithms_.size());
    std::vector<int64_t> query_nanos(algorithms_.size());
    std::vector<int64_t> memories(algorithms_.size());

    double best_baseline = std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < algorithms_.size(); ++a) {
      Stopwatch timer;
      QueryStats stats;
      auto solution = algorithms_[a]->Query(&stats);
      query_nanos[a] = timer.ElapsedNanos();
      FKC_CHECK(solution.ok()) << algorithms_[a]->Name() << ": "
                               << solution.status().ToString();
      if (options.check_fairness) {
        FKC_CHECK(constraint_.IsFeasible(solution.value().centers))
            << algorithms_[a]->Name() << " violated the color caps";
      }
      radii[a] =
          ClusteringRadius(*metric_, window_points, solution.value().centers);
      memories[a] = algorithms_[a]->MemoryPoints();
      if (algorithms_[a]->IsBaseline()) {
        best_baseline = std::min(best_baseline, radii[a]);
      }
    }

    for (size_t a = 0; a < algorithms_.size(); ++a) {
      double ratio = std::numeric_limits<double>::quiet_NaN();
      if (std::isfinite(best_baseline) && best_baseline > 0.0) {
        ratio = radii[a] / best_baseline;
      }
      recorders[a].RecordQuery(query_nanos[a], radii[a], memories[a], ratio);
    }
  }

  std::vector<AlgorithmReport> reports;
  reports.reserve(recorders.size());
  for (const MetricsRecorder& rec : recorders) {
    AlgorithmReport report;
    report.name = rec.name();
    report.mean_update_ms = rec.MeanUpdateMillis();
    report.mean_query_ms = rec.MeanQueryMillis();
    report.mean_memory_points = rec.MeanMemoryPoints();
    report.mean_radius = rec.MeanRadius();
    report.mean_ratio = rec.MeanApproxRatio();
    report.queries = rec.QueryCount();
    reports.push_back(report);
  }
  return reports;
}

ShardedThroughputReport RunShardedThroughput(
    serving::ShardManager* manager, PointStream* stream,
    const std::vector<std::string>& keys, const ShardedRunOptions& options) {
  FKC_CHECK(manager != nullptr);
  FKC_CHECK(stream != nullptr);
  FKC_CHECK(!keys.empty());
  FKC_CHECK_GT(options.stream_length, 0);
  FKC_CHECK_GT(options.batch_size, 0);

  ShardedThroughputReport report;
  report.shards = static_cast<int>(keys.size());

  KeyedBatchFeeder feeder(manager, options.batch_size,
                          &report.update_seconds);

  // Burst schedule: the first burst_size arrivals of every burst_every
  // cycle accumulate here and land as one oversized IngestBatch. The burst
  // is always delivered before the next paced arrival is read, so per-key
  // arrival order matches the paced stream exactly.
  int64_t burst_size = 0;
  if (options.burst_every > 0) {
    burst_size = options.burst_size > 0 ? options.burst_size
                                        : 8 * options.batch_size;
    burst_size = std::min(burst_size, options.burst_every);
  }
  std::vector<serving::KeyedPoint> burst;
  if (burst_size > 0) burst.reserve(static_cast<size_t>(burst_size));
  auto deliver_burst = [&] {
    if (burst.empty()) return;
    feeder.Flush();  // paced arrivals buffered earlier precede the burst
    Stopwatch timer;
    const Status status = manager->IngestBatch(std::move(burst));
    FKC_CHECK(status.ok()) << status.ToString();
    report.update_seconds += timer.ElapsedMillis() / 1e3;
    ++report.bursts;
    burst = {};
    burst.reserve(static_cast<size_t>(burst_size));
  };

  for (int64_t t = 0; t < options.stream_length; ++t) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value()) << "stream exhausted at arrival " << t;
    const std::string& key =
        keys[static_cast<size_t>(t % static_cast<int64_t>(keys.size()))];
    if (burst_size > 0 && t % options.burst_every < burst_size) {
      burst.push_back({key, std::move(*next)});
      if (static_cast<int64_t>(burst.size()) >= burst_size) deliver_burst();
    } else {
      feeder.Add(key, std::move(*next));
    }
    ++report.updates;

    if (options.query_every > 0 && (t + 1) % options.query_every == 0) {
      deliver_burst();  // a query mid-cycle ships the partial burst first
      feeder.Flush();  // answers must reflect every arrival delivered so far
      Stopwatch timer;
      const auto answers = manager->QueryAll();
      report.query_seconds += timer.ElapsedMillis() / 1e3;
      for (const serving::ShardAnswer& answer : answers) {
        FKC_CHECK(answer.solution.ok())
            << "shard '" << answer.key
            << "': " << answer.solution.status().ToString();
      }
      report.queries += static_cast<int64_t>(answers.size());
    }
  }
  deliver_burst();
  feeder.Flush();
  return report;
}

ShardedChurnReport RunShardedChurn(serving::ShardManager* manager,
                                   PointStream* stream,
                                   const ShardedChurnOptions& options) {
  FKC_CHECK(manager != nullptr);
  FKC_CHECK(stream != nullptr);
  FKC_CHECK_GT(options.stream_length, 0);
  FKC_CHECK_GT(options.batch_size, 0);
  FKC_CHECK_GT(options.tenants, 0);
  FKC_CHECK_GT(options.active, 0);
  FKC_CHECK_GT(options.rotate_every, 0);

  ShardedChurnReport report;
  KeyedBatchFeeder feeder(manager, options.batch_size,
                          &report.update_seconds);
  serving::DeltaLog::Options log_options;
  log_options.max_chain_length = options.delta_chain_budget;
  serving::DeltaLog log(log_options);

  for (int64_t t = 0; t < options.stream_length; ++t) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value()) << "stream exhausted at arrival " << t;
    // The active set slides forward one tenant per rotate_every arrivals;
    // tenants behind the set go idle and the periodic sweep spills them.
    const int64_t tenant =
        (t / options.rotate_every + t % options.active) % options.tenants;
    feeder.Add(StrFormat("tenant-%04lld", static_cast<long long>(tenant)),
               std::move(*next));
    ++report.updates;

    if (options.evict_every > 0 && (t + 1) % options.evict_every == 0) {
      feeder.Flush();
      Stopwatch timer;
      Status spill_status;
      manager->EvictIdle(options.idle_ttl, &spill_status);
      FKC_CHECK(spill_status.ok()) << spill_status.ToString();
      report.maintenance_seconds += timer.ElapsedMillis() / 1e3;
    }
    if (options.delta_every > 0 && (t + 1) % options.delta_every == 0) {
      feeder.Flush();
      Stopwatch timer;
      auto captured = log.Capture(manager);
      report.maintenance_seconds += timer.ElapsedMillis() / 1e3;
      FKC_CHECK(captured.ok()) << captured.status().ToString();
      if (!captured.value().rebased) {
        ++report.delta_checkpoints;
        report.delta_bytes += static_cast<int64_t>(captured.value().bytes);
      }
    }
  }
  feeder.Flush();

  Stopwatch timer;
  auto full = manager->CheckpointAll();
  FKC_CHECK(full.ok()) << full.status().ToString();
  report.full_checkpoint_bytes = static_cast<int64_t>(full.value().size());
  report.maintenance_seconds += timer.ElapsedMillis() / 1e3;
  report.log_bytes = static_cast<int64_t>(log.base_bytes()) + log.chain_bytes();
  report.rebases = log.rebases();
  report.evictions = manager->evictions();
  report.rehydrations = manager->rehydrations();
  report.total_shards = static_cast<int64_t>(manager->shard_count());
  report.live_shards = static_cast<int64_t>(manager->live_shard_count());
  return report;
}

ShardedContentionReport RunShardedContention(
    serving::ShardManager* manager, PointStream* stream,
    const ShardedContentionOptions& options) {
  FKC_CHECK(manager != nullptr);
  FKC_CHECK(stream != nullptr);
  FKC_CHECK_GT(options.client_threads, 0);
  FKC_CHECK_GT(options.points_per_client, 0);
  FKC_CHECK_GT(options.batch_size, 0);

  ShardedContentionReport report;
  report.client_threads = options.client_threads;
  report.idle_tenants = static_cast<int>(options.idle_tenants);

  // The key schedule. Classic mode: client c owns "client-c", fully
  // disjoint. Zipf mode (zipf_s > 0): every arrival's key is a rank drawn
  // from a shared heavy-tailed tenant population, so hot tenants are
  // contended across clients. create_every rotates either schedule to a
  // fresh key generation mid-run, keeping shard creation on the measured
  // path.
  const int64_t zipf_tenants =
      options.zipf_s > 0.0
          ? (options.zipf_tenants > 0
                 ? options.zipf_tenants
                 : int64_t{4} * options.client_threads)
          : 0;
  std::unique_ptr<ZipfDistribution> zipf;
  if (options.zipf_s > 0.0) {
    zipf = std::make_unique<ZipfDistribution>(
        static_cast<size_t>(zipf_tenants), options.zipf_s);
  }
  auto key_for = [&](int client, int64_t i, Rng* rng) -> std::string {
    const long long generation =
        options.create_every > 0
            ? static_cast<long long>(i / options.create_every)
            : 0;
    if (zipf != nullptr) {
      const long long rank = static_cast<long long>(zipf->Next(rng));
      return generation == 0 ? StrFormat("hot-%04lld", rank)
                             : StrFormat("hot-g%lld-%04lld", generation, rank);
    }
    return generation == 0
               ? StrFormat("client-%02d", client)
               : StrFormat("client-%02d-g%lld", client, generation);
  };

  // Pre-generate every client's keyed arrivals before the clock starts:
  // stream synthesis (and Zipf sampling) must not be measured, and clients
  // must not contend on the stream itself. Deterministic per client: the
  // Zipf draws are seeded by the client index.
  std::vector<std::vector<serving::KeyedPoint>> per_client(
      static_cast<size_t>(options.client_threads));
  for (int c = 0; c < options.client_threads; ++c) {
    Rng rng(/*seed=*/777 + static_cast<uint64_t>(c));
    auto& arrivals = per_client[static_cast<size_t>(c)];
    arrivals.reserve(static_cast<size_t>(options.points_per_client));
    for (int64_t i = 0; i < options.points_per_client; ++i) {
      auto next = stream->Next();
      FKC_CHECK(next.has_value()) << "stream exhausted pre-generating points";
      arrivals.push_back({key_for(c, i, &rng), std::move(*next)});
    }
  }

  // Build the cold half of the fleet (also unmeasured): fill each idle
  // tenant, then spill all of them at once. They stay spilled for the whole
  // run — the hot keys are disjoint and the maintenance TTL is far larger
  // than the run — so every QueryAll round pays idle_tenants ephemeral
  // reads with full state deserialization.
  for (int64_t t = 0; t < options.idle_tenants; ++t) {
    const std::string key = StrFormat("idle-%02lld", static_cast<long long>(t));
    std::vector<serving::KeyedPoint> batch;
    batch.reserve(static_cast<size_t>(options.batch_size));
    for (int64_t i = 0; i < options.idle_points; ++i) {
      auto next = stream->Next();
      FKC_CHECK(next.has_value()) << "stream exhausted building idle tenants";
      batch.push_back({key, std::move(*next)});
      if (static_cast<int64_t>(batch.size()) == options.batch_size ||
          i + 1 == options.idle_points) {
        const Status status = manager->IngestBatch(std::move(batch));
        FKC_CHECK(status.ok()) << status.ToString();
        batch.clear();
        batch.reserve(static_cast<size_t>(options.batch_size));
      }
    }
  }
  // Warm up the generation-0 hot shards: one arrival each, so the measured
  // phase never pays their creation (later create_every generations pay it
  // on the hot path by design), and the fleet clock moves past every cold
  // tenant's last touch (EvictIdle counts a shard idle only when it is
  // STRICTLY older than the TTL). In Zipf mode the warm set is the whole
  // rank population — even the tail ranks a client may never draw.
  std::vector<std::string> warm_keys;
  if (zipf != nullptr) {
    for (int64_t rank = 0; rank < zipf_tenants; ++rank) {
      warm_keys.push_back(StrFormat("hot-%04lld", static_cast<long long>(rank)));
    }
  } else {
    for (int c = 0; c < options.client_threads; ++c) {
      warm_keys.push_back(StrFormat("client-%02d", c));
    }
  }
  for (const std::string& key : warm_keys) {
    auto next = stream->Next();
    FKC_CHECK(next.has_value()) << "stream exhausted warming hot shards";
    std::vector<serving::KeyedPoint> warmup;
    warmup.push_back({key, std::move(*next)});
    const Status status = manager->IngestBatch(std::move(warmup));
    FKC_CHECK(status.ok()) << status.ToString();
  }
  if (options.idle_tenants > 0) {
    // TTL = warm_keys - 1 separates the fleet exactly: every cold tenant
    // is at least warm_keys arrivals stale (the warmups above all came
    // later), while the oldest hot warmup is warm_keys - 1.
    Status spill_status;
    const int64_t spilled = manager->EvictIdle(
        static_cast<int64_t>(warm_keys.size()) - 1, &spill_status);
    FKC_CHECK(spill_status.ok()) << spill_status.ToString();
    FKC_CHECK_EQ(spilled, options.idle_tenants)
        << "cold tenants failed to spill";
  }

  // The baseline's "one internal mutex": every manager call — ingest,
  // QueryAll, maintenance — funnels through this lock when global_mutex is
  // set. With it off the lambda is pass-through and the manager's own
  // two-level locking is what's measured.
  std::mutex global_mu;
  auto locked = [&](auto&& fn) {
    if (options.global_mutex) {
      std::lock_guard<std::mutex> lock(global_mu);
      return fn();
    }
    return fn();
  };

  std::atomic<bool> done{false};
  std::atomic<int64_t> query_rounds{0};
  std::atomic<int64_t> maintenance_ticks{0};

  // Background QueryAll storm: rounds run back to back, separated only by
  // the configured pause (the baseline's ingest window — see the header).
  std::thread query_thread([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const auto answers = locked([&] { return manager->QueryAll(); });
      for (const serving::ShardAnswer& answer : answers) {
        FKC_CHECK(answer.solution.ok())
            << "shard '" << answer.key
            << "': " << answer.solution.status().ToString();
      }
      query_rounds.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.query_pause_ms));
    }
  });
  std::thread maintenance_thread([&] {
    serving::MaintenanceOptions tick_options;
    tick_options.idle_ttl = options.idle_ttl;
    while (!done.load(std::memory_order_relaxed)) {
      const auto tick =
          locked([&] { return manager->RunMaintenanceTick(tick_options); });
      FKC_CHECK(tick.status.ok()) << tick.status.ToString();
      maintenance_ticks.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.maintenance_pause_ms));
    }
  });

  // Release the clients and time the whole concurrent phase: wall clock
  // from here to the last client finishing its fixed workload, with the
  // background threads hammering throughout.
  Stopwatch timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(options.client_threads));
  for (int c = 0; c < options.client_threads; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<serving::KeyedPoint>& arrivals =
          per_client[static_cast<size_t>(c)];
      for (size_t start = 0; start < arrivals.size();
           start += static_cast<size_t>(options.batch_size)) {
        const size_t end = std::min(
            arrivals.size(), start + static_cast<size_t>(options.batch_size));
        std::vector<serving::KeyedPoint> batch(arrivals.begin() + start,
                                               arrivals.begin() + end);
        const Status status =
            locked([&] { return manager->IngestBatch(std::move(batch)); });
        FKC_CHECK(status.ok()) << status.ToString();
        if (options.client_pause_ms > 0 &&
            end < arrivals.size()) {  // no tail padding after the last batch
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.client_pause_ms));
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  report.update_seconds = timer.ElapsedMillis() / 1e3;
  done.store(true, std::memory_order_relaxed);
  query_thread.join();
  maintenance_thread.join();

  report.updates = static_cast<int64_t>(options.client_threads) *
                   options.points_per_client;
  report.query_rounds = query_rounds.load();
  report.maintenance_ticks = maintenance_ticks.load();
  report.shards = static_cast<int>(manager->shard_count()) -
                  static_cast<int>(options.idle_tenants);
  report.pool_steals = manager->pool_shared_claims();
  return report;
}

}  // namespace fkc
