// replicate-recover: the durability path. One writer thread ingests a
// churned keyed stream (32 tenants, a sliding active set of 4, as in the
// shard_scaling churn scenario), queries the tenant it just wrote after
// every batch, and every fixed number of arrivals runs a maintenance tick
// (idle eviction) followed by a capture into a ReplicatedLog in a temporary
// directory (segment publish with fsync). A LogSender streams the log to
// an in-process LogReceiver follower over a unix socket. At the end the
// fleet is rebuilt from disk with ReplicatedLog::Replay.
//
// The tick and the capture are made as two calls (RunMaintenanceTick
// without a log, then ReplicatedLog::Capture when a shard is dirty), which
// is exactly what RunMaintenanceTick does when handed the log, so the two
// layers can be timed apart.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "common/logging.h"
#include "core/fair_center_sliding_window.h"
#include "datasets/phones_sim.h"
#include "sequential/jones_fair_center.h"
#include "serving/replication/replicated_log.h"
#include "serving/replication/transport.h"
#include "serving/shard_manager.h"

namespace perfbench {
namespace {

using fkc::serving::KeyedPoint;
using fkc::serving::LogReceiver;
using fkc::serving::LogSender;
using fkc::serving::ReplicatedLog;
using fkc::serving::ShardManager;

struct ReplicateSpec {
  int64_t tenants = 32;
  int64_t active = 4;
  int64_t rotate_every = 1024;
  int64_t window = 2000;
  int64_t batch = 64;
  int64_t tick_every = 4096;  ///< arrivals per maintenance tick + capture
  int64_t idle_ttl = 4096;
  int64_t pool = 50000;
  int64_t trace_arrivals = 0;  ///< per traced pass; a multiple of tick_every
  /// A measured run stops only once the log holds this many deltas after
  /// its base, so every run leaves a log of the same shape to replay.
  int64_t end_chain_length = 8;
};

ReplicateSpec SpecFor(const RunConfig& config) {
  ReplicateSpec spec;
  if (config.tiny) {
    spec.tenants = 8;
    spec.rotate_every = 128;
    spec.window = 200;
    spec.tick_every = 512;
    spec.idle_ttl = 512;
    spec.pool = 5000;
    spec.trace_arrivals = 2048;
    spec.end_chain_length = 2;
  } else {
    spec.trace_arrivals = 16 * spec.tick_every;
  }
  return spec;
}

/// Arrivals until every tenant's window is full: a tenant receives
/// rotate_every arrivals per full rotation of the active set.
int64_t WarmupArrivals(const ReplicateSpec& spec) {
  const int64_t cycles =
      (spec.window + spec.rotate_every - 1) / spec.rotate_every;
  const int64_t arrivals = cycles * spec.tenants * spec.rotate_every;
  return (arrivals + spec.tick_every - 1) / spec.tick_every * spec.tick_every;
}

int64_t TenantOf(const ReplicateSpec& spec, int64_t t) {
  return (t / spec.rotate_every + t % spec.active) % spec.tenants;
}

std::string TenantKey(int64_t tenant) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tenant-%04lld",
                static_cast<long long>(tenant));
  return buf;
}

fkc::SlidingWindowOptions TenantWindow(const ReplicateSpec& spec) {
  fkc::SlidingWindowOptions window;
  window.window_size = spec.window;
  window.beta = 2.0;
  window.delta = 1.0;
  window.adaptive_range = true;
  return window;
}

struct ReplicaState {
  std::string dir;
  std::vector<fkc::Point> pool;
  fkc::ColorConstraint caps;
  double generate_s = 0.0;
  std::shared_ptr<TracedSpillStore> traced_store;
  std::unique_ptr<ShardManager> manager;
  // Declared in dependency order: the receiver stops first, then the
  // sender, and only then the log it streams.
  std::unique_ptr<ReplicatedLog> log;
  std::unique_ptr<LogSender> sender;
  std::unique_ptr<LogReceiver> receiver;
  int64_t consumed = 0;
};

struct ReplicaDrive {
  std::vector<double> batch_ms;
  std::vector<double> query_ms;
  std::vector<double> capture_ms;
  int64_t arrivals = 0;
  double ingest_s = 0.0;  ///< IngestBatch plus the inline ticks and captures
  double ingest_busy_s = 0.0;
  double query_busy_s = 0.0;
  double capture_busy_s = 0.0;
  int64_t captures = 0;
  int64_t capture_bytes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t cap_violations = 0;
  /// Live stored points after every tick; memory_points is their mean.
  double memory_sum = 0.0;
  int64_t memory_samples = 0;
  /// Probed before every fourth batch; scales each timing to reference-core
  /// time.
  SpeedGauge gauge;
  /// The gauge's median probe at every tick, in ns.
  std::vector<double> probe_ns;
  /// Times IngestBatch and Query, which run on the writer thread alone (the
  /// manager has no pool); ticks and captures wait for the disk and keep
  /// wall time.
  CpuTimer timer;
};

/// One maintenance tick plus capture; its time counts as ingest time.
void Tick(const ReplicateSpec& spec, ReplicaState* s, Tracer* tracer,
          ReplicaDrive* d) {
  const int64_t start = NowNanos();
  fkc::serving::MaintenanceOptions options;
  options.idle_ttl = spec.idle_ttl;
  fkc::Status status = [&] {
    Span span(tracer, kServing);
    return s->manager->RunMaintenanceTick(options).status;
  }();
  ++d->attempted;
  if (!status.ok()) ++d->failed;
  if (s->manager->dirty_shard_count() > 0) {
    const int64_t capture_start = NowNanos();
    auto captured = [&] {
      Span span(tracer, kReplication);
      return s->log->Capture(s->manager.get());
    }();
    const double elapsed = (NowNanos() - capture_start) * d->gauge.Scale();
    d->capture_ms.push_back(elapsed * 1e-6);
    d->capture_busy_s += elapsed * 1e-9;
    ++d->captures;
    ++d->attempted;
    if (captured.ok()) {
      d->capture_bytes += static_cast<int64_t>(captured.value().bytes);
    } else {
      ++d->failed;
    }
  }
  d->ingest_s += SecondsSince(start) * d->gauge.Scale();
  d->probe_ns.push_back(d->gauge.ProbeNs());
  d->memory_sum +=
      static_cast<double>(s->manager->TotalMemory().TotalPoints());
  ++d->memory_samples;
}

/// The closed loop: IngestBatch, Query of the tenant just written, and a
/// tick every tick_every arrivals. Runs `seconds` of loop time and then on
/// to the next tick that leaves end_chain_length deltas in the log, or
/// exactly `fixed_arrivals` when positive; always ends on a tick. When
/// given, `sample` runs after a tick once every `sample_every_s` seconds of
/// loop time, with the loop's clock paused.
ReplicaDrive Drive(const ReplicateSpec& spec, ReplicaState* s,
                   Tracer* tracer, double seconds, int64_t fixed_arrivals,
                   const std::function<void()>& sample = nullptr,
                   double sample_every_s = 0.0) {
  ReplicaDrive d;
  d.gauge = SpeedGauge(fixed_arrivals == 0);
  d.timer = CpuTimer(fixed_arrivals == 0);
  const int64_t size = static_cast<int64_t>(s->pool.size());
  const int64_t loop_start = NowNanos();
  double paused_s = 0.0;
  double next_sample_s = sample_every_s / 2;
  while (true) {
    const bool at_tick = s->consumed % spec.tick_every == 0;
    const double loop_s = SecondsSince(loop_start) - paused_s;
    if (at_tick &&
        (fixed_arrivals > 0
             ? d.arrivals >= fixed_arrivals
             : loop_s >= seconds &&
                   static_cast<int64_t>(s->log->chain_length()) ==
                       spec.end_chain_length)) {
      break;
    }
    if (at_tick && sample && loop_s >= next_sample_s) {
      const int64_t pause = NowNanos();
      sample();
      paused_s += SecondsSince(pause);
      next_sample_s += sample_every_s;
    }
    std::vector<KeyedPoint> batch;
    batch.reserve(spec.batch);
    for (int64_t i = 0; i < spec.batch; ++i) {
      const int64_t t = s->consumed++;
      batch.push_back({TenantKey(TenantOf(spec, t)), s->pool[t % size]});
    }
    const std::string last_key = batch.back().key;
    d.gauge.Tick(4);
    d.timer.Start();
    fkc::Status status = [&] {
      Span span(tracer, kServing, kPhaseUpdate);
      return s->manager->IngestBatch(std::move(batch));
    }();
    double elapsed = d.timer.Stop() * d.gauge.Scale();
    d.batch_ms.push_back(elapsed * 1e-6);
    d.ingest_s += elapsed * 1e-9;
    d.ingest_busy_s += elapsed * 1e-9;
    d.arrivals += spec.batch;
    ++d.attempted;
    if (!status.ok()) ++d.failed;

    d.timer.Start();
    auto answer = [&] {
      Span span(tracer, kServing, kPhaseQuery);
      return s->manager->Query(last_key);
    }();
    elapsed = d.timer.Stop() * d.gauge.Scale();
    d.query_ms.push_back(elapsed * 1e-6);
    d.query_busy_s += elapsed * 1e-9;
    ++d.attempted;
    if (!answer.ok()) {
      ++d.failed;
    } else if (!s->caps.IsFeasible(answer.value().centers)) {
      ++d.failed;
      ++d.cap_violations;
    }

    if (s->consumed % spec.tick_every == 0) Tick(spec, s, tracer, &d);
  }
  return d;
}

/// Inputs, fleet, durable log, sender and follower, and warm-up (with its
/// ticks and captures) until every tenant's window is full.
std::unique_ptr<ReplicaState> Setup(const ReplicateSpec& spec,
                                      uint64_t seed, const std::string& dir,
                                      const fkc::Metric* metric,
                                      const fkc::FairCenterSolver* solver,
                                      bool traced_store) {
  auto s = std::make_unique<ReplicaState>();
  s->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int64_t start = NowNanos();
  fkc::datasets::PhonesSimOptions phones;
  phones.num_points = spec.pool;
  phones.seed = SubSeed(seed, 3);
  s->pool = fkc::datasets::GeneratePhonesSim(phones);
  s->generate_s = SecondsSince(start);
  s->caps = PaperCaps(s->pool, 7);

  fkc::serving::ShardManagerOptions options;
  options.window = TenantWindow(spec);
  options.num_threads = 1;
  if (traced_store) {
    s->traced_store = std::make_shared<TracedSpillStore>();
    options.spill_store = s->traced_store;
  }
  s->manager =
      std::make_unique<ShardManager>(options, s->caps, metric, solver);
  s->log = std::make_unique<ReplicatedLog>(dir + "/leader");
  FKC_CHECK(s->log->Open().ok());
  LogSender::Options sender_options;
  sender_options.unix_socket_path = dir + "/s.sock";
  s->sender = std::make_unique<LogSender>(s->log.get(), sender_options);
  FKC_CHECK(s->sender->Start().ok());
  LogReceiver::Options receiver_options;
  receiver_options.unix_socket_path = sender_options.unix_socket_path;
  s->receiver =
      std::make_unique<LogReceiver>(metric, solver, receiver_options);
  FKC_CHECK(s->receiver->Start().ok());

  const ReplicaDrive warmup =
      Drive(spec, s.get(), nullptr, 0.0, WarmupArrivals(spec));
  FKC_CHECK(warmup.failed == 0);
  return s;
}

/// Captures what is still dirty, waits for the follower to apply the whole
/// chain, and checks its fleet against the leader's. Returns the catch-up
/// seconds.
double FinishAndCheckFollower(const ReplicateSpec& spec, ReplicaState* s,
                              const std::string& check_prefix,
                              std::string* leader_blob, Report* report) {
  ReplicaDrive tail;
  Tick(spec, s, nullptr, &tail);
  report->Attempt(tail.attempted, tail.failed);
  const int64_t start = NowNanos();
  const int64_t want_entries =
      1 + static_cast<int64_t>(s->log->chain_length());
  bool caught_up = false;
  while (SecondsSince(start) < 60.0) {
    const LogReceiver::StalenessBound bound = s->receiver->staleness();
    if (bound.has_fleet && bound.applied_generation == s->log->generation() &&
        bound.applied_entries == want_entries) {
      caught_up = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double catchup_s = SecondsSince(start);
  auto blob = s->manager->CheckpointAll();
  *leader_blob = blob.ok() ? blob.value() : std::string();
  auto follower = s->receiver->CheckpointAll();
  report->Check(check_prefix + "follower_equal",
                caught_up && blob.ok() && follower.ok() &&
                    follower.value() == blob.value(),
                caught_up ? "follower CheckpointAll vs leader"
                          : "follower did not catch up within 60 s");
  return catchup_s;
}

/// Exact window of `tenant` after `consumed` arrivals, oldest first.
std::vector<fkc::Point> ExactWindow(const ReplicateSpec& spec,
                                    const ReplicaState& s, int64_t tenant) {
  std::vector<fkc::Point> window;
  const int64_t size = static_cast<int64_t>(s.pool.size());
  for (int64_t t = s.consumed - 1; t >= 0 &&
                                   static_cast<int64_t>(window.size()) <
                                       spec.window;
       --t) {
    if (TenantOf(spec, t) == tenant) window.push_back(s.pool[t % size]);
  }
  std::reverse(window.begin(), window.end());
  return window;
}

void ReportDrive(const ReplicaDrive& d, Report* report) {
  report->Attempt(d.attempted, d.failed);
  report->Check("caps", d.cap_violations == 0,
                std::to_string(d.cap_violations) + " answers violate a cap");
}

std::string PassDir(const RunConfig& config, const char* pass) {
  return config.tmp_dir + "/replicate-" + std::to_string(::getpid()) + pass;
}

void RunMeasured(const ReplicateSpec& spec, const RunConfig& config,
                 Report* report) {
  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter solver;
  const std::string dir = PassDir(config, "m");
  std::vector<double> setup_s;
  SpeedGauge gauge;
  std::unique_ptr<ReplicaState> state;
  for (int i = 0; i < 3; ++i) {
    state.reset();
    for (int p = 0; p < 5; ++p) gauge.Probe();
    const int64_t start = NowNanos();
    state = Setup(spec, config.seed, dir, &metric, &solver, false);
    setup_s.push_back(SecondsSince(start) * gauge.Scale());
  }
  // Restart cost: the log as it stood at the end of set-up (every window
  // full, a shape fixed per seed) is frozen in a copy and replayed into a
  // fresh fleet every two seconds of the closed loop (more often in short
  // runs), so the samples span the whole run instead of one moment of it.
  // A first, untimed replay warms the page cache and checks the copy
  // against the set-up fleet.
  const std::string frozen = dir + "/frozen";
  std::filesystem::copy(dir + "/leader", frozen,
                        std::filesystem::copy_options::recursive);
  auto replay = [&](const std::string& log_dir) {
    ReplicatedLog log(log_dir);
    fkc::Status opened = log.Open();
    return opened.ok() ? log.Replay(&metric, &solver)
                       : fkc::Result<ShardManager>(opened);
  };
  auto blob_of = [](fkc::Result<ShardManager>& fleet) {
    auto blob = fleet.ok() ? fleet.value().CheckpointAll()
                           : fkc::Result<std::string>(fleet.status());
    return blob.ok() ? blob.value() : std::string();
  };
  auto setup_blob = state->manager->CheckpointAll();
  std::string frozen_blob;
  {
    auto first = replay(frozen);
    frozen_blob = blob_of(first);
  }
  bool frozen_equal = setup_blob.ok() && !frozen_blob.empty() &&
                      frozen_blob == setup_blob.value();
  std::vector<double> recover_s;
  auto sample_recovery = [&] {
    for (int p = 0; p < 5; ++p) gauge.Probe();
    const int64_t start = NowNanos();
    auto fleet = replay(frozen);
    recover_s.push_back(SecondsSince(start) * gauge.Scale());
    frozen_equal = frozen_equal && blob_of(fleet) == frozen_blob;
  };
  const ReplicaDrive d = Drive(spec, state.get(), nullptr, config.seconds, 0,
                               sample_recovery,
                               std::min(2.0, config.seconds / 4));
  report->Check("frozen_replay_equal", frozen_equal && !recover_s.empty(),
                std::to_string(recover_s.size()) +
                    " replays of the set-up log vs the set-up fleet");
  ReportDrive(d, report);
  CheckOnCpu(d.timer.OffShare(), report);
  std::string leader_blob;
  FinishAndCheckFollower(spec, state.get(), "", &leader_blob, report);

  // Recovery at the end: open the leader's log afresh and replay it.
  std::unique_ptr<ShardManager> recovered;
  auto fleet = replay(dir + "/leader");
  const bool recovered_equal = blob_of(fleet) == leader_blob;
  if (fleet.ok()) {
    recovered = std::make_unique<ShardManager>(std::move(fleet).value());
  }
  report->Check("recovered_equal", recovered_equal,
                "replayed fleet CheckpointAll vs leader");

  std::vector<double> quality;
  int64_t quality_violations = 0;
  for (int64_t tenant = 0; tenant < spec.tenants && recovered != nullptr;
       ++tenant) {
    auto answer = recovered->Query(TenantKey(tenant));
    if (!answer.ok()) continue;
    const QualitySample s =
        MeasureQuality(metric, ExactWindow(spec, *state, tenant),
                       answer.value().centers, state->caps,
                       TenantWindow(spec).delta, 2.0);
    quality.push_back(s.ratio);
    if (!s.within_bound) ++quality_violations;
  }
  report->Check("quality_bound",
                quality_violations == 0 &&
                    static_cast<int64_t>(quality.size()) == spec.tenants,
                std::to_string(quality_violations) + " of " +
                    std::to_string(quality.size()) +
                    " sampled ratios on the recovered fleet exceed 3+eps");

  double quality_sum = 0.0;
  for (double q : quality) quality_sum += q;
  report->Series("setup_s", setup_s);
  report->Series("ingest_batch_ms", d.batch_ms);
  report->Series("query_ms", d.query_ms);
  report->Series("recover_s", recover_s);
  report->Value("ingest_pps", d.arrivals / d.ingest_s);
  report->Value("memory_points",
                d.memory_sum / std::max<int64_t>(1, d.memory_samples));
  report->Value("quality_ratio",
                quality.empty() ? 0.0 : quality_sum / quality.size());
  report->Value("peak_rss_mb", PeakRssMb());
  std::vector<double> probe_ns = d.probe_ns;
  if (!probe_ns.empty()) {
    auto mid = probe_ns.begin() + probe_ns.size() / 2;
    std::nth_element(probe_ns.begin(), mid, probe_ns.end());
    report->Info("probe_ns", *mid);
  }
  state.reset();
  std::filesystem::remove_all(dir);
}

void RunTraced(const ReplicateSpec& spec, const RunConfig& config,
               Report* report) {
  const fkc::EuclideanMetric plain_metric;
  const fkc::JonesFairCenter plain_solver;

  const std::string plain_dir = PassDir(config, "u");
  auto plain = Setup(spec, config.seed, plain_dir, &plain_metric,
                     &plain_solver, false);
  const ReplicaDrive u =
      Drive(spec, plain.get(), nullptr, 0.0, spec.trace_arrivals);
  ReportDrive(u, report);
  std::string plain_blob;
  FinishAndCheckFollower(spec, plain.get(), "untraced_", &plain_blob, report);
  plain.reset();
  std::filesystem::remove_all(plain_dir);

  Tracer tracer;
  TracedMetric metric(&plain_metric, nullptr);
  TracedSolver solver(&plain_solver, nullptr);
  const std::string dir = PassDir(config, "t");
  auto traced = Setup(spec, config.seed, dir, &metric, &solver, true);
  metric.set_tracer(&tracer);
  solver.set_tracer(&tracer);
  const int64_t evictions_before = traced->manager->evictions();
  const int64_t rehydrations_before = traced->manager->rehydrations();
  const int64_t rebases_before = traced->log->rebases();
  const ReplicaDrive t =
      Drive(spec, traced.get(), &tracer, 0.0, spec.trace_arrivals);
  ReportDrive(t, report);
  const int64_t evictions = traced->manager->evictions() - evictions_before;
  const int64_t rehydrations =
      traced->manager->rehydrations() - rehydrations_before;
  const int64_t rebases = traced->log->rebases() - rebases_before;
  const int64_t live_end = traced->manager->live_shard_count();
  const int64_t spilled_end = traced->manager->spilled_shard_count();
  const double guesses = traced->manager->TotalMemory().guesses;
  std::string traced_blob;
  const double catchup_s =
      FinishAndCheckFollower(spec, traced.get(), "", &traced_blob, report);
  report->Check("trace_digest", plain_blob == traced_blob,
                "untraced " + Digest(plain_blob) + " vs traced " +
                    Digest(traced_blob));
  const fkc::serving::SenderStats sent = traced->sender->stats();

  const int64_t replay_start = NowNanos();
  ReplicatedLog log(dir + "/leader");
  fkc::Status opened = log.Open();
  auto fleet = [&] {
    Span span(&tracer, kReplication);
    return opened.ok() ? log.Replay(&metric, &solver)
                       : fkc::Result<ShardManager>(opened);
  }();
  const double replay_s = SecondsSince(replay_start);
  auto replayed_blob = fleet.ok() ? fleet.value().CheckpointAll()
                                  : fkc::Result<std::string>(fleet.status());
  report->Check("recovered_equal",
                replayed_blob.ok() && replayed_blob.value() == traced_blob,
                "replayed fleet CheckpointAll vs leader");

  const double arrivals = static_cast<double>(t.arrivals);
  const double queries =
      static_cast<double>(std::max<size_t>(1, t.query_ms.size()));
  const int64_t solve_calls = tracer.CallsAll(kSequential);
  report->Value("metric.evals_per_arrival",
                tracer.MetricEvals(kPhaseUpdate) / arrivals);
  report->Value("metric.evals_per_query",
                tracer.MetricEvals(kPhaseQuery) / queries);
  report->Value("metric.busy_s_update", tracer.Busy(kMetric, kPhaseUpdate) * 1e-9);
  report->Value("metric.busy_s_query", tracer.Busy(kMetric, kPhaseQuery) * 1e-9);
  report->Value("metric.share_update",
                tracer.Busy(kMetric, kPhaseUpdate) * 1e-9 / t.ingest_busy_s);
  report->Value("core.guesses", guesses);
  report->Value("sequential.solve_busy_s", tracer.BusyAll(kSequential) * 1e-9);
  report->Value("sequential.solve_calls", static_cast<double>(solve_calls));
  report->Value("sequential.solve_input_points_mean",
                solve_calls > 0 ? static_cast<double>(solver.input_points()) /
                                      solve_calls
                                : 0.0);
  report->Value("sequential.share_query",
                tracer.Busy(kSequential, kPhaseQuery) * 1e-9 / t.query_busy_s);
  report->Value("serving.ingest_busy_s", t.ingest_busy_s);
  report->Value("serving.query_busy_s", t.query_busy_s);
  const TracedSpillStore& store = *traced->traced_store;
  report->Value("serving.spill_puts", static_cast<double>(store.puts()));
  report->Value("serving.spill_gets", static_cast<double>(store.gets()));
  report->Value("serving.spill_put_s", store.put_ns() * 1e-9);
  report->Value("serving.spill_get_s", store.get_ns() * 1e-9);
  report->Value("serving.spill_bytes", static_cast<double>(store.bytes()));
  report->Value("serving.evictions", static_cast<double>(evictions));
  report->Value("serving.rehydrations", static_cast<double>(rehydrations));
  report->Value("serving.rehydrations_per_touch",
                rehydrations / (2.0 * std::max<size_t>(1, t.batch_ms.size())));
  report->Value("serving.live_shards_end", static_cast<double>(live_end));
  report->Value("serving.spilled_shards_end", static_cast<double>(spilled_end));
  report->Value("replication.capture_calls", static_cast<double>(t.captures));
  report->Value("replication.capture_busy_s", t.capture_busy_s);
  report->Series("replication.capture_ms", u.capture_ms);
  report->Value("replication.capture_bytes", static_cast<double>(t.capture_bytes));
  report->Value("replication.rebases", static_cast<double>(rebases));
  report->Value("replication.replay_busy_s", replay_s);
  report->Value("replication.recovered_entries",
                static_cast<double>(log.recovery_stats().recovered_entries));
  report->Value("replication.frames_sent", static_cast<double>(sent.frames_sent));
  report->Value("replication.resyncs", static_cast<double>(sent.resyncs_served));
  report->Value("replication.follower_catchup_s", catchup_s);
  report->Value("datasets.generate_s", traced->generate_s);
  report->Value("trace.overhead_ratio",
                (t.arrivals / t.ingest_s) / (u.arrivals / u.ingest_s));
  traced.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

void RunReplicateRecover(const RunConfig& config, Report* report) {
  const ReplicateSpec spec = SpecFor(config);
  report->Info("generator", "phones_sim");
  report->Info("tenants", static_cast<double>(spec.tenants));
  report->Info("window", static_cast<double>(spec.window));
  if (config.trace) {
    RunTraced(spec, config, report);
  } else {
    RunMeasured(spec, config, report);
  }
}

}  // namespace perfbench
