// Experiment driver: feeds a stream into any number of sliding-window
// algorithms and full-window baselines, measures the paper's four indicators
// (memory in points, update time, query time, approximation ratio vs the
// best baseline radius per window), and averages them over consecutive
// query windows exactly as Section 4 prescribes.
#ifndef FKC_STREAM_WINDOW_DRIVER_H_
#define FKC_STREAM_WINDOW_DRIVER_H_

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fair_center_sliding_window.h"
#include "matroid/color_constraint.h"
#include "serving/shard_manager.h"
#include "stream/metrics_recorder.h"
#include "stream/reference_window.h"
#include "stream/stream.h"

namespace fkc {

/// Uniform handle the driver uses to drive one competitor.
class DrivenAlgorithm {
 public:
  virtual ~DrivenAlgorithm() = default;
  virtual void Update(const Point& p) = 0;
  /// Consumes a batch of consecutive arrivals. The default unrolls into
  /// Update calls; adapters over batch-capable windows forward to their
  /// native UpdateBatch so the parallel engine sees whole batches.
  virtual void UpdateBatch(const std::vector<Point>& batch) {
    for (const Point& p : batch) Update(p);
  }
  virtual Result<FairCenterSolution> Query(QueryStats* stats) = 0;
  /// Stored points, the paper's memory unit.
  virtual int64_t MemoryPoints() const = 0;
  virtual const std::string& Name() const = 0;
  /// Baselines define the denominator of the approximation ratio.
  virtual bool IsBaseline() const = 0;
};

namespace internal {
/// Detects a native UpdateBatch(std::vector<Point>) on the wrapped window.
template <typename Window, typename = void>
struct HasUpdateBatch : std::false_type {};
template <typename Window>
struct HasUpdateBatch<Window,
                      std::void_t<decltype(std::declval<Window&>().UpdateBatch(
                          std::declval<std::vector<Point>>()))>>
    : std::true_type {};
}  // namespace internal

/// Adapter over FairCenterSlidingWindow / FairCenterLite (anything with the
/// same Update/Query/Memory surface).
template <typename Window>
class StreamingAdapter final : public DrivenAlgorithm {
 public:
  StreamingAdapter(std::string name, Window* window)
      : name_(std::move(name)), window_(window) {}

  void Update(const Point& p) override { window_->Update(p); }
  void UpdateBatch(const std::vector<Point>& batch) override {
    if constexpr (internal::HasUpdateBatch<Window>::value) {
      window_->UpdateBatch(batch);
    } else {
      DrivenAlgorithm::UpdateBatch(batch);
    }
  }
  Result<FairCenterSolution> Query(QueryStats* stats) override {
    return window_->Query(stats);
  }
  int64_t MemoryPoints() const override {
    return window_->Memory().TotalPoints();
  }
  const std::string& Name() const override { return name_; }
  bool IsBaseline() const override { return false; }

 private:
  std::string name_;
  Window* window_;
};

/// A sequential solver run on a verbatim copy of the window — how the paper
/// evaluates ChenEtAl and Jones in the sliding-window setting.
class BaselineAdapter final : public DrivenAlgorithm {
 public:
  BaselineAdapter(std::string name, const FairCenterSolver* solver,
                  const Metric* metric, ColorConstraint constraint,
                  int64_t window_size);

  void Update(const Point& p) override { window_.Update(p); }
  Result<FairCenterSolution> Query(QueryStats* stats) override;
  int64_t MemoryPoints() const override { return window_.MemoryPoints(); }
  const std::string& Name() const override { return name_; }
  bool IsBaseline() const override { return true; }

 private:
  std::string name_;
  const FairCenterSolver* solver_;
  const Metric* metric_;
  ColorConstraint constraint_;
  ReferenceWindow window_;
};

/// Final averaged measurements for one algorithm.
struct AlgorithmReport {
  std::string name;
  double mean_update_ms = 0.0;
  double mean_query_ms = 0.0;
  double mean_memory_points = 0.0;
  double mean_radius = 0.0;
  /// Mean per-window radius / best-baseline-radius; NaN without baselines.
  double mean_ratio = 0.0;
  int64_t queries = 0;
};

/// Experiment schedule.
struct DriverOptions {
  /// Total stream points fed (must exceed window_size to exercise sliding).
  int64_t stream_length = 0;
  /// Number of measured query windows at the end of the stream (the paper
  /// averages over 200 consecutive windows).
  int64_t num_queries = 200;
  /// Arrivals between consecutive measured queries.
  int64_t query_stride = 1;
  /// Arrivals delivered per UpdateBatch call. 1 reproduces the classic
  /// point-at-a-time drive; larger values exercise the batched engine.
  /// Batches are flushed early when a measured query is due, so query
  /// positions are identical at every batch size.
  int64_t update_batch_size = 1;
  /// Verify that every returned solution satisfies the color caps.
  bool check_fairness = true;
};

/// Runs registered algorithms over a stream and reports averages.
class WindowDriver {
 public:
  WindowDriver(const Metric* metric, ColorConstraint constraint,
               int64_t window_size);

  /// Registers a competitor; the driver takes ownership of the adapter.
  void Add(std::unique_ptr<DrivenAlgorithm> algorithm);

  /// Convenience wrappers.
  template <typename Window>
  void AddStreaming(std::string name, Window* window) {
    Add(std::make_unique<StreamingAdapter<Window>>(std::move(name), window));
  }
  void AddBaseline(std::string name, const FairCenterSolver* solver);

  /// Feeds `options.stream_length` points and measures the tail windows.
  /// Radii are always evaluated against the true window contents.
  std::vector<AlgorithmReport> Run(PointStream* stream,
                                   const DriverOptions& options);

 private:
  const Metric* metric_;
  ColorConstraint constraint_;
  int64_t window_size_;
  std::vector<std::unique_ptr<DrivenAlgorithm>> algorithms_;
};

/// Schedule of a sharded serving run (bench/shard_scaling and the
/// multi-tenant example).
struct ShardedRunOptions {
  /// Total keyed arrivals fed across all shards.
  int64_t stream_length = 0;
  /// Keyed arrivals per IngestBatch call.
  int64_t batch_size = 64;
  /// A QueryAll fan-out after every this many arrivals (0 = never).
  int64_t query_every = 1024;
  /// Burst arrivals: every `burst_every` arrivals the driver withholds the
  /// next `burst_size` arrivals and delivers them as ONE oversized
  /// IngestBatch call (bypassing `batch_size`), modelling synchronized
  /// sensor flushes or thundering-herd tenants instead of a perfectly
  /// paced stream. Any paced arrivals still buffered are flushed before
  /// the burst, so per-key arrival order — the only order that matters —
  /// is exactly the paced stream's. 0 disables bursts.
  int64_t burst_every = 0;
  /// Arrivals per burst; clamped to `burst_every`, and 0 defaults to
  /// 8 * batch_size when bursts are enabled.
  int64_t burst_size = 0;
};

/// Aggregate throughput of one sharded run.
struct ShardedThroughputReport {
  int shards = 0;
  int64_t updates = 0;
  int64_t queries = 0;  ///< per-shard answers, i.e. QueryAll calls * shards
  int64_t bursts = 0;   ///< oversized burst batches delivered
  double update_seconds = 0.0;
  double query_seconds = 0.0;

  double UpdatesPerSecond() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
  double QueriesPerSecond() const {
    return query_seconds > 0.0 ? static_cast<double>(queries) / query_seconds
                                : 0.0;
  }
};

/// Drives a ShardManager for throughput measurement: arrivals from `stream`
/// are routed round-robin over `keys` (arrival i goes to keys[i % keys]),
/// delivered in batches, with periodic QueryAll fan-outs. Every returned
/// answer is checked OK; wall times for ingest and query are accumulated
/// separately.
ShardedThroughputReport RunShardedThroughput(
    serving::ShardManager* manager, PointStream* stream,
    const std::vector<std::string>& keys, const ShardedRunOptions& options);

/// Schedule of an eviction-churn serving run: a large tenant population of
/// which only a small set is active at any moment, the active set sliding
/// over time so tenants go idle, get spilled by periodic EvictIdle sweeps
/// (into whichever SpillStore backend the manager was built with), and are
/// rehydrated if the schedule returns to them. Periodic delta captures feed
/// a compacting serving::DeltaLog, measuring how much smaller steady-state
/// deltas are than the full fleet blob and how often the chain re-bases.
struct ShardedChurnOptions {
  /// Total keyed arrivals fed across the run.
  int64_t stream_length = 0;
  /// Keyed arrivals per IngestBatch call.
  int64_t batch_size = 64;
  /// Tenant population the schedule cycles through.
  int64_t tenants = 32;
  /// Tenants receiving arrivals at any moment (arrival t goes to tenant
  /// (t / rotate_every + t % active) % tenants).
  int64_t active = 4;
  /// Arrivals between sliding the active set forward by one tenant.
  int64_t rotate_every = 1024;
  /// Arrivals between EvictIdle sweeps (0 = never evict).
  int64_t evict_every = 1024;
  /// Idle TTL handed to EvictIdle, in fleet-wide arrivals.
  int64_t idle_ttl = 4096;
  /// Arrivals between DeltaLog captures (0 = never).
  int64_t delta_every = 8192;
  /// DeltaLog chain-length budget: captures past this many chained deltas
  /// re-base on a full checkpoint.
  int64_t delta_chain_budget = 8;
};

/// Outcome of one churn run. The counters (updates, evictions,
/// rehydrations, shard/byte totals) are deterministic for a fixed stream
/// and schedule; the wall times are not.
struct ShardedChurnReport {
  int64_t updates = 0;
  int64_t evictions = 0;
  int64_t rehydrations = 0;
  int64_t total_shards = 0;      ///< live + spilled at the end
  int64_t live_shards = 0;       ///< live at the end (post final sweep)
  int64_t delta_checkpoints = 0;  ///< DeltaLog captures that shipped a delta
  int64_t delta_bytes = 0;       ///< summed over all delta captures
  int64_t rebases = 0;           ///< chain compactions (budget exceeded)
  int64_t log_bytes = 0;         ///< final DeltaLog size (base + chain)
  int64_t full_checkpoint_bytes = 0;  ///< one CheckpointAll at the end
  double update_seconds = 0.0;
  double maintenance_seconds = 0.0;  ///< EvictIdle + checkpoint time

  double UpdatesPerSecond() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
};

/// Drives a ShardManager through the churn schedule above. Every IngestBatch
/// status is checked OK (the schedule only produces valid arrivals).
ShardedChurnReport RunShardedChurn(serving::ShardManager* manager,
                                   PointStream* stream,
                                   const ShardedChurnOptions& options);

/// Schedule of a multi-thread contention run: N client threads, each
/// ingesting a fixed number of pre-generated arrivals into its own tenant
/// shard, while a background thread runs continuous QueryAll rounds and a
/// maintenance thread runs eviction-sweep ticks. Measures how much ingest
/// the serving layer sustains while fleet-wide reads and maintenance hammer
/// it — the scenario per-shard locking exists for. With `global_mutex` the
/// same schedule wraps EVERY manager call in one external mutex, emulating
/// the old single-internal-mutex design as the baseline: there a QueryAll
/// round blocks all clients for the whole fleet scan.
struct ShardedContentionOptions {
  /// Client threads; client c ingests only into its own key ("client-c"),
  /// so client threads never contend with each other under per-shard
  /// locking, only with the fleet-wide readers.
  int client_threads = 8;
  /// Arrivals each client ingests (pre-generated before the clock starts,
  /// so stream synthesis is not measured).
  int64_t points_per_client = 0;
  /// Keyed arrivals per IngestBatch call.
  int64_t batch_size = 64;
  /// Think time between a client's batches, modelling a paced per-tenant
  /// arrival stream instead of an offline replay. The pacing leaves the
  /// fleet idle headroom — per-shard locking spends it on the background
  /// QueryAll scans without delaying any client, while the single-mutex
  /// baseline stalls every client for the full duration of each scan.
  /// 0 = hammer (clients replay as fast as the manager admits them).
  int64_t client_pause_ms = 2;
  /// Cold tenants: before the clock starts, each is filled with
  /// `idle_points` arrivals and spilled to the store (EvictIdle(0)). They
  /// never ingest again, but every background QueryAll round pays an
  /// ephemeral read — store Get + full state deserialization — for each
  /// one. That is what makes a fleet scan cost real time: under the
  /// single-mutex baseline the whole scan happens with every hot client
  /// blocked, while per-shard locking deserializes cold state outside any
  /// lock the clients need.
  int64_t idle_tenants = 24;
  /// Arrivals pre-ingested into each cold tenant (sets its spilled-state
  /// size, i.e. the per-shard cost of a fleet scan).
  int64_t idle_points = 1000;
  /// Pause between background QueryAll rounds. Deliberately non-zero: it
  /// also gives the single-mutex baseline its only ingest window — with a
  /// back-to-back query loop the global mutex would be re-acquired before
  /// any waiting client wakes, and the baseline would measure pure
  /// starvation instead of contention.
  int64_t query_pause_ms = 2;
  /// Pause between maintenance ticks (each = one eviction sweep).
  int64_t maintenance_pause_ms = 5;
  /// Idle TTL handed to the per-tick sweep. The default is large enough
  /// that the sweep scans but spills nothing — the contention scenario
  /// measures locking, not spill IO.
  int64_t idle_ttl = int64_t{1} << 30;
  /// Baseline mode: serialize every manager call behind one external
  /// mutex (ingest, QueryAll, and maintenance alike).
  bool global_mutex = false;
  /// Zipf skew of the key routing. 0 keeps the classic schedule (client c
  /// owns key "client-c", fully disjoint). s > 0 switches to a shared
  /// heavy-tailed tenant population: each client draws every arrival's key
  /// from Zipf(s) over `zipf_tenants` ranks (deterministically, seeded per
  /// client), so hot tenants are shared across clients. Measures the
  /// serving layer under realistic hot-key popularity instead of perfectly
  /// spread routing.
  double zipf_s = 0.0;
  /// Tenant population for the Zipf schedule; 0 = 4 * client_threads.
  int64_t zipf_tenants = 0;
  /// Create-heavy churn: every this many arrivals, a client rotates to a
  /// fresh never-seen key generation (key "client-c-gN" or a fresh Zipf
  /// rank namespace), so shard CREATION — the routing layer's write path —
  /// stays on the hot path instead of happening once at warm-up. 0 = keys
  /// are stable for the whole run.
  int64_t create_every = 0;
};

/// Outcome of one contention run. updates and shards are deterministic;
/// everything else is wall-clock dependent (including query_rounds and
/// maintenance_ticks — background threads run as often as the clock lets
/// them).
struct ShardedContentionReport {
  int shards = 0;          ///< hot shards at the end (clients or Zipf ranks)
  int client_threads = 0;
  int idle_tenants = 0;    ///< cold spilled tenants scanned by every round
  int64_t updates = 0;
  int64_t query_rounds = 0;       ///< completed background QueryAll rounds
  int64_t maintenance_ticks = 0;  ///< completed background sweeps
  /// Pool iterations claimed while another fan-out was concurrently in
  /// flight (ThreadPool work sharing). Volatile, like query_rounds.
  int64_t pool_steals = 0;
  /// Wall time from releasing the clients to the last client finishing,
  /// with the background threads running throughout.
  double update_seconds = 0.0;

  double UpdatesPerSecond() const {
    return update_seconds > 0.0 ? static_cast<double>(updates) / update_seconds
                                : 0.0;
  }
};

/// Runs the contention schedule. Every IngestBatch status, QueryAll answer,
/// and maintenance tick is checked OK.
ShardedContentionReport RunShardedContention(
    serving::ShardManager* manager, PointStream* stream,
    const ShardedContentionOptions& options);

}  // namespace fkc

#endif  // FKC_STREAM_WINDOW_DRIVER_H_
