// fleet-mixed: one ShardManager serving 64 tenants under contention. Two
// unpaced ingest clients each own 32 tenants and draw keys Zipf(1.1) over
// them; one reader sends per-tenant Query calls (keys uniform over all
// tenants) with a QueryAll and an EvictIdle every fixed number of its own
// operations; the manager's pool has one worker besides the calling thread.
// Every caller waits for each reply (closed loop). A quarter of the tenants
// run k-median. At most 16 shards stay live; the rest spill to an in-memory
// store, so reads and writes keep rehydrating and spilling.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/fair_center_sliding_window.h"
#include "core/objective_engine.h"
#include "datasets/phones_sim.h"
#include "sequential/jones_fair_center.h"
#include "serving/shard_manager.h"

namespace perfbench {
namespace {

using fkc::serving::KeyedPoint;
using fkc::serving::ShardManager;

struct FleetSpec {
  int tenants = 64;
  int clients = 2;
  int64_t window = 2000;
  int64_t batch = 8;
  double zipf_s = 1.1;
  int64_t max_live = 16;
  int64_t queryall_every = 100;  ///< reader ops per QueryAll
  int64_t evict_every = 25;      ///< reader ops per EvictIdle
  int64_t idle_ttl = 20000;     ///< manager ticks (fleet-wide arrivals)
  int64_t trace_batches = 0;    ///< batches per client in a traced pass
};

FleetSpec SpecFor(const RunConfig& config) {
  FleetSpec spec;
  if (config.tiny) {
    spec.tenants = 8;
    spec.window = 200;
    spec.max_live = 4;
    spec.idle_ttl = 2000;
    spec.trace_batches = 40;
  } else {
    spec.trace_batches = 3000;
  }
  return spec;
}

/// The coldest quarter of each client's tenants (Zipf ranks 24..31 of 32)
/// run k-median: their queries land in the tail, where the cost of that
/// objective shows.
bool IsKMedian(const FleetSpec& spec, int tenant) {
  const int per_client = spec.tenants / spec.clients;
  return tenant % per_client >= per_client - per_client / 4;
}

std::string TenantKey(int tenant) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tenant-%02d", tenant);
  return buf;
}

/// Per-tenant phones traces (each tenant its own sensor stream), cycled.
struct FleetInputs {
  std::vector<std::vector<fkc::Point>> pools;
  fkc::ColorConstraint caps;
  double generate_s = 0.0;
};

FleetInputs MakeInputs(const FleetSpec& spec, uint64_t seed) {
  FleetInputs in;
  const int64_t start = NowNanos();
  for (int t = 0; t < spec.tenants; ++t) {
    fkc::datasets::PhonesSimOptions options;
    options.num_points = 3 * spec.window;
    options.seed = SubSeed(seed, 100 + t);
    in.pools.push_back(fkc::datasets::GeneratePhonesSim(options));
  }
  in.generate_s = SecondsSince(start);
  std::vector<fkc::Point> sample;
  for (const auto& pool : in.pools) {
    for (size_t i = 0; i < pool.size(); i += 8) sample.push_back(pool[i]);
  }
  in.caps = PaperCaps(sample, 7);
  return in;
}

fkc::SlidingWindowOptions TenantWindow(const FleetSpec& spec) {
  fkc::SlidingWindowOptions window;
  window.window_size = spec.window;
  window.beta = 2.0;
  window.delta = 1.0;
  window.adaptive_range = true;
  return window;
}

/// The deterministic arrival sequence of one client: Zipf-drawn keys over
/// its own tenants, each tenant's points taken in order from its trace.
/// The same object regenerates the same batches for the serial replay.
class ClientStream {
 public:
  ClientStream(const FleetSpec& spec, const FleetInputs& in, uint64_t seed,
               int client, std::vector<int64_t>* counts)
      : spec_(spec),
        in_(in),
        rng_(SubSeed(seed, 200 + client)),
        zipf_(spec.tenants / spec.clients, spec.zipf_s),
        first_tenant_(client * (spec.tenants / spec.clients)),
        counts_(counts) {}

  std::vector<KeyedPoint> NextBatch() {
    std::vector<KeyedPoint> batch;
    batch.reserve(spec_.batch);
    for (int64_t i = 0; i < spec_.batch; ++i) {
      const int t = first_tenant_ + static_cast<int>(zipf_.Next(&rng_));
      const auto& pool = in_.pools[t];
      int64_t& count = (*counts_)[t];
      batch.push_back({TenantKey(t), pool[count % pool.size()]});
      ++count;
    }
    return batch;
  }

 private:
  const FleetSpec& spec_;
  const FleetInputs& in_;
  fkc::Rng rng_;
  fkc::ZipfDistribution zipf_;
  int first_tenant_;
  std::vector<int64_t>* counts_;
};

struct FleetState {
  FleetInputs in;
  std::shared_ptr<TracedSpillStore> traced_store;  ///< traced passes only
  std::unique_ptr<ShardManager> manager;
  std::vector<int64_t> counts;  ///< arrivals per tenant so far
};

/// Input generation, fleet construction, objectives, and warm-up until
/// every tenant's window is full.
FleetState Setup(const FleetSpec& spec, uint64_t seed,
                   const fkc::Metric* metric,
                   const fkc::FairCenterSolver* solver, bool traced_store) {
  FleetState state;
  state.in = MakeInputs(spec, seed);
  fkc::serving::ShardManagerOptions options;
  options.window = TenantWindow(spec);
  options.num_threads = 2;  // one pool worker plus the calling thread
  options.max_live_shards = spec.max_live;
  if (traced_store) {
    state.traced_store = std::make_shared<TracedSpillStore>();
    options.spill_store = state.traced_store;
  } else {
    options.spill_store =
        std::make_shared<fkc::serving::InMemorySpillStore>();
  }
  state.manager = std::make_unique<ShardManager>(options, state.in.caps,
                                                   metric, solver);
  state.counts.assign(spec.tenants, 0);
  for (int t = 0; t < spec.tenants; ++t) {
    if (IsKMedian(spec, t)) {
      FKC_CHECK(state.manager
                    ->SetTenantObjective(TenantKey(t),
                                         fkc::ObjectiveKind::kKMedian)
                    .ok());
    }
  }
  for (int t = 0; t < spec.tenants; ++t) {
    while (state.counts[t] < spec.window) {
      std::vector<KeyedPoint> batch;
      const int64_t n = std::min(spec.batch, spec.window - state.counts[t]);
      for (int64_t i = 0; i < n; ++i) {
        batch.push_back(
            {TenantKey(t), state.in.pools[t][state.counts[t]++]});
      }
      FKC_CHECK(state.manager->IngestBatch(std::move(batch)).ok());
    }
  }
  return state;
}

struct FleetDrive {
  std::vector<double> batch_ms;       ///< both clients
  std::vector<double> query_ms;       ///< reader per-tenant queries
  std::vector<double> queryall_ms;
  int64_t arrivals = 0;
  int64_t batches = 0;
  /// Sum over the clients of arrivals per second of their IngestBatch time.
  double ingest_pps = 0.0;
  double ingest_busy_s = 0.0;
  double query_busy_s = 0.0;
  double queryall_busy_s = 0.0;
  double kmedian_query_s = 0.0;
  int64_t touches = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t cap_violations = 0;
  int64_t kmedian_cap_violations = 0;
};

/// Checks one answer; returns false when it counts as a failure. k-median
/// answers are not held to the caps: that objective does not promise them
/// (its documented caveat), so their violations are only counted.
bool CheckAnswer(const fkc::Result<fkc::ObjectiveSolution>& answer,
                 bool kmedian, const fkc::ColorConstraint& caps,
                 FleetDrive* d) {
  if (!answer.ok()) return false;
  if (caps.IsFeasible(answer.value().centers)) return true;
  if (kmedian) {
    ++d->kmedian_cap_violations;
    return true;
  }
  ++d->cap_violations;
  return false;
}

/// Runs the clients and the reader until `seconds` pass, or until each
/// client has sent `fixed_batches` batches when positive. Every thread
/// keeps its own gauge and probes it between calls (clients every fourth
/// batch); each timing is scaled to reference-core time.
FleetDrive Drive(const FleetSpec& spec, FleetState* state, uint64_t seed,
                 Tracer* tracer, double seconds, int64_t fixed_batches) {
  ShardManager* manager = state->manager.get();
  const fkc::ColorConstraint& caps = state->in.caps;
  std::atomic<bool> stop_clients{false};
  std::atomic<bool> stop_reader{false};
  std::vector<FleetDrive> client_results(spec.clients);
  FleetDrive reader_result;

  auto client = [&](int c) {
    FleetDrive& d = client_results[c];
    SpeedGauge gauge(fixed_batches <= 0);
    ClientStream stream(spec, state->in, seed, c, &state->counts);
    while (!stop_clients.load(std::memory_order_relaxed) &&
           (fixed_batches <= 0 || d.batches < fixed_batches)) {
      std::vector<KeyedPoint> batch = stream.NextBatch();
      std::vector<std::string> keys;
      for (const auto& kp : batch) keys.push_back(kp.key);
      std::sort(keys.begin(), keys.end());
      d.touches += std::unique(keys.begin(), keys.end()) - keys.begin();
      gauge.Tick(4);
      const int64_t start = NowNanos();
      fkc::Status status = [&] {
        Span span(tracer, kServing, kPhaseUpdate);
        return manager->IngestBatch(std::move(batch));
      }();
      const double elapsed = (NowNanos() - start) * gauge.Scale();
      d.batch_ms.push_back(elapsed * 1e-6);
      d.ingest_busy_s += elapsed * 1e-9;
      d.arrivals += spec.batch;
      ++d.batches;
      ++d.attempted;
      if (!status.ok()) ++d.failed;
    }
  };

  auto reader = [&] {
    FleetDrive& d = reader_result;
    SpeedGauge gauge(fixed_batches <= 0);
    fkc::Rng rng(SubSeed(seed, 300));
    for (int64_t op = 1; !stop_reader.load(std::memory_order_relaxed); ++op) {
      ++d.attempted;
      gauge.Probe();
      if (op % spec.queryall_every == 0) {
        const int64_t start = NowNanos();
        auto answers = [&] {
          Span span(tracer, kServing, kPhaseQuery);
          return manager->QueryAll();
        }();
        const double elapsed = (NowNanos() - start) * gauge.Scale();
        d.queryall_ms.push_back(elapsed * 1e-6);
        d.queryall_busy_s += elapsed * 1e-9;
        bool ok = answers.size() == static_cast<size_t>(spec.tenants);
        for (const auto& a : answers) {
          const int t = std::atoi(a.key.c_str() + 7);
          ok = CheckAnswer(a.solution, IsKMedian(spec, t), caps, &d) && ok;
        }
        if (!ok) ++d.failed;
      } else if (op % spec.evict_every == 0) {
        fkc::Status status;
        {
          Span span(tracer, kServing);
          manager->EvictIdle(spec.idle_ttl, &status);
        }
        if (!status.ok()) ++d.failed;
      } else {
        // A dashboard reading any tenant: mostly spilled ones, so the
        // median query pays a rehydration, and the hot tenants' shard locks
        // (held by the writers) show in the tail.
        const int t = static_cast<int>(rng.NextBounded(spec.tenants));
        const int64_t start = NowNanos();
        auto answer = [&] {
          Span span(tracer, kServing, kPhaseQuery);
          return manager->Query(TenantKey(t));
        }();
        const double elapsed = (NowNanos() - start) * gauge.Scale();
        d.query_ms.push_back(elapsed * 1e-6);
        d.query_busy_s += elapsed * 1e-9;
        if (IsKMedian(spec, t)) d.kmedian_query_s += elapsed * 1e-9;
        ++d.touches;
        if (!CheckAnswer(answer, IsKMedian(spec, t), caps, &d)) ++d.failed;
      }
    }
  };

  std::thread reader_thread(reader);
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) clients.emplace_back(client, c);
  if (fixed_batches <= 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop_clients.store(true);
  }
  for (auto& t : clients) t.join();
  stop_reader.store(true);
  reader_thread.join();

  FleetDrive d = reader_result;
  for (const FleetDrive& c : client_results) {
    d.batch_ms.insert(d.batch_ms.end(), c.batch_ms.begin(), c.batch_ms.end());
    if (c.ingest_busy_s > 0) d.ingest_pps += c.arrivals / c.ingest_busy_s;
    d.arrivals += c.arrivals;
    d.batches += c.batches;
    d.ingest_busy_s += c.ingest_busy_s;
    d.touches += c.touches;
    d.attempted += c.attempted;
    d.failed += c.failed;
  }
  return d;
}

/// Every tenant's final answer, by per-key Query (outside any timing).
std::vector<fkc::Result<fkc::ObjectiveSolution>> FinalAnswers(
    const FleetSpec& spec, ShardManager* manager) {
  std::vector<fkc::Result<fkc::ObjectiveSolution>> answers;
  for (int t = 0; t < spec.tenants; ++t) {
    answers.push_back(manager->Query(TenantKey(t)));
  }
  return answers;
}

std::string AnswersDigest(
    const std::vector<fkc::Result<fkc::ObjectiveSolution>>& answers) {
  std::string all;
  for (const auto& a : answers) {
    all += a.ok() ? AnswerDigest(a.value().value, a.value().centers)
                  : std::string("error");
  }
  return Digest(all);
}

/// The serial reference: one independent engine per tenant fed that
/// tenant's arrival sequence. Clients own disjoint tenants, so each
/// sequence is deterministic however the clients interleaved. Runs on four
/// threads (the fleet's threads have all stopped by then).
int64_t CountReplayMismatches(
    const FleetSpec& spec, const FleetState& state,
    const std::vector<fkc::Result<fkc::ObjectiveSolution>>& answers,
    const fkc::Metric* metric, const fkc::FairCenterSolver* solver) {
  std::atomic<int64_t> mismatches{0};
  auto replay = [&](int worker) {
    for (int t = worker; t < spec.tenants; t += 4) {
      auto engine = fkc::CreateObjectiveEngine(
          IsKMedian(spec, t) ? fkc::ObjectiveKind::kKMedian
                       : fkc::ObjectiveKind::kFairCenter,
          TenantWindow(spec), state.in.caps, metric, solver);
      const auto& pool = state.in.pools[t];
      std::vector<fkc::Point> chunk;
      for (int64_t i = 0; i < state.counts[t]; ++i) {
        chunk.push_back(pool[i % pool.size()]);
        if (static_cast<int64_t>(chunk.size()) == spec.batch ||
            i + 1 == state.counts[t]) {
          engine->UpdateBatch(std::move(chunk));
          chunk.clear();
        }
      }
      auto expected = engine->QueryObjective();
      const bool same =
          expected.ok() && answers[t].ok() &&
          AnswerDigest(expected.value().value, expected.value().centers) ==
              AnswerDigest(answers[t].value().value,
                           answers[t].value().centers);
      if (!same) mismatches.fetch_add(1);
    }
  };
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) workers.emplace_back(replay, w);
  for (auto& w : workers) w.join();
  return mismatches.load();
}

void ReportDrive(const FleetDrive& d, Report* report) {
  report->Attempt(d.attempted, d.failed);
  report->Check("caps", d.cap_violations == 0,
                std::to_string(d.cap_violations) +
                    " fair-center answers violate a cap");
  report->Info("kmedian_cap_violations",
               static_cast<double>(d.kmedian_cap_violations));
}

void RunMeasured(const FleetSpec& spec, const RunConfig& config,
                 Report* report) {
  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter solver;
  std::vector<double> setup_s;
  SpeedGauge gauge;
  FleetState state;
  for (int i = 0; i < 3; ++i) {
    state = FleetState();
    for (int p = 0; p < 5; ++p) gauge.Probe();
    const int64_t start = NowNanos();
    state = Setup(spec, config.seed, &metric, &solver, false);
    setup_s.push_back(SecondsSince(start) * gauge.Scale());
  }
  // Restart cost: restore the checkpoint of the warmed-up fleet (every
  // window full), a state that does not depend on how far the run gets,
  // before the run has loaded the heap. The first, untimed restore warms
  // the allocator.
  auto blob = state.manager->CheckpointAll();
  std::vector<double> recover_s;
  bool round_trip = blob.ok();
  for (int i = 0; i < 16 && blob.ok(); ++i) {
    for (int p = 0; p < 5; ++p) gauge.Probe();
    const int64_t start = NowNanos();
    auto restored = ShardManager::Restore(
        blob.value(), &metric, &solver, 1, spec.max_live,
        std::make_shared<fkc::serving::InMemorySpillStore>());
    if (i > 0) recover_s.push_back(SecondsSince(start) * gauge.Scale());
    if (!restored.ok()) {
      round_trip = false;
      continue;
    }
    auto again = restored.value().CheckpointAll();
    round_trip = round_trip && again.ok() && again.value() == blob.value();
  }
  report->Check("checkpoint_round_trip", round_trip,
                "restored fleet re-checkpoints byte-equal");

  const FleetDrive d =
      Drive(spec, &state, config.seed, nullptr, config.seconds, 0);
  ReportDrive(d, report);

  const auto answers = FinalAnswers(spec, state.manager.get());
  const int64_t mismatches =
      CountReplayMismatches(spec, state, answers, &metric, &solver);
  report->Check("serial_replay", mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(spec.tenants) +
                    " tenants differ from a serial replay");

  // Quality on every fair-center tenant.
  std::vector<double> quality;
  int64_t quality_violations = 0;
  int64_t fair_tenants = 0;
  for (int t = 0; t < spec.tenants; ++t) {
    if (IsKMedian(spec, t)) continue;
    ++fair_tenants;
    if (!answers[t].ok()) continue;
    const auto& pool = state.in.pools[t];
    std::vector<fkc::Point> window;
    for (int64_t i = state.counts[t] - spec.window; i < state.counts[t];
         ++i) {
      window.push_back(pool[i % pool.size()]);
    }
    const QualitySample s =
        MeasureQuality(metric, window, answers[t].value().centers,
                       state.in.caps, TenantWindow(spec).delta, 2.0);
    quality.push_back(s.ratio);
    if (!s.within_bound) ++quality_violations;
  }
  report->Check("quality_bound",
                quality_violations == 0 &&
                    static_cast<int64_t>(quality.size()) == fair_tenants,
                std::to_string(quality_violations) + " of " +
                    std::to_string(quality.size()) +
                    " sampled ratios exceed 3+eps");

  double quality_sum = 0.0;
  for (double q : quality) quality_sum += q;
  report->Series("setup_s", setup_s);
  report->Series("ingest_batch_ms", d.batch_ms);
  report->Series("query_ms", d.query_ms);
  report->Series("queryall_ms", d.queryall_ms);
  report->Series("recover_s", recover_s);
  report->Value("ingest_pps", d.ingest_pps);
  report->Value("memory_points", static_cast<double>(
                                     state.manager->TotalMemory().TotalPoints()));
  report->Value("quality_ratio",
                quality.empty() ? 0.0 : quality_sum / quality.size());
  report->Value("peak_rss_mb", PeakRssMb());
}

void RunTraced(const FleetSpec& spec, const RunConfig& config,
               Report* report) {
  const fkc::EuclideanMetric plain_metric;
  const fkc::JonesFairCenter plain_solver;

  FleetState plain =
      Setup(spec, config.seed, &plain_metric, &plain_solver, false);
  const FleetDrive u =
      Drive(spec, &plain, config.seed, nullptr, 0.0, spec.trace_batches);
  ReportDrive(u, report);
  const auto plain_answers = FinalAnswers(spec, plain.manager.get());
  const std::string plain_digest = AnswersDigest(plain_answers);
  const int64_t mismatches = CountReplayMismatches(
      spec, plain, plain_answers, &plain_metric, &plain_solver);
  report->Check("serial_replay", mismatches == 0,
                std::to_string(mismatches) + " tenants differ");

  Tracer tracer;
  TracedMetric metric(&plain_metric, nullptr);
  TracedSolver solver(&plain_solver, nullptr);
  FleetState traced = Setup(spec, config.seed, &metric, &solver, true);
  metric.set_tracer(&tracer);
  solver.set_tracer(&tracer);
  const int64_t evictions_before = traced.manager->evictions();
  const int64_t rehydrations_before = traced.manager->rehydrations();
  const FleetDrive t =
      Drive(spec, &traced, config.seed, &tracer, 0.0, spec.trace_batches);
  ReportDrive(t, report);
  const int64_t evictions = traced.manager->evictions() - evictions_before;
  const int64_t rehydrations =
      traced.manager->rehydrations() - rehydrations_before;
  const int64_t live_end = traced.manager->live_shard_count();
  const int64_t spilled_end = traced.manager->spilled_shard_count();
  const std::string traced_digest =
      AnswersDigest(FinalAnswers(spec, traced.manager.get()));
  report->Check("trace_digest", plain_digest == traced_digest,
                "untraced " + plain_digest + " vs traced " + traced_digest);

  // The same batches replayed serially into a fresh fleet: the outside
  // proxy for lock wait is how much slower the concurrent batches were.
  // The replay runs without the live-shard cap. Between serial batches the
  // cap is enforced exactly, while under the concurrent load it is best
  // effort (busy shards are skipped, so serving.live_shards_end overshoots
  // it); a capped serial replay would time spill thrash the concurrent run
  // never does.
  FleetSpec uncapped = spec;
  uncapped.max_live = 0;
  FleetState serial =
      Setup(uncapped, config.seed, &plain_metric, &plain_solver, false);
  std::vector<ClientStream> streams;
  for (int c = 0; c < spec.clients; ++c) {
    streams.emplace_back(uncapped, serial.in, config.seed, c, &serial.counts);
  }
  std::vector<double> serial_ms;
  for (int64_t b = 0; b < spec.trace_batches; ++b) {
    for (auto& stream : streams) {
      std::vector<KeyedPoint> batch = stream.NextBatch();
      const int64_t start = NowNanos();
      const bool ok = serial.manager->IngestBatch(std::move(batch)).ok();
      serial_ms.push_back(SecondsSince(start) * 1e3);
      report->Attempt(1, ok ? 0 : 1);
    }
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };

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
  report->Value("core.guesses", static_cast<double>(
                                    traced.manager->TotalMemory().guesses));
  report->Value("sequential.solve_busy_s", tracer.BusyAll(kSequential) * 1e-9);
  report->Value("sequential.solve_calls", static_cast<double>(solve_calls));
  report->Value("sequential.solve_input_points_mean",
                solve_calls > 0 ? static_cast<double>(solver.input_points()) /
                                      solve_calls
                                : 0.0);
  report->Value("sequential.share_query",
                tracer.Busy(kSequential, kPhaseQuery) * 1e-9 /
                    (t.query_busy_s + t.queryall_busy_s));
  report->Value("sequential.kmedian_query_s", t.kmedian_query_s);
  report->Value("common.pool_shared_claims",
                static_cast<double>(plain.manager->pool_shared_claims()));
  report->Value("serving.ingest_busy_s", t.ingest_busy_s);
  report->Value("serving.query_busy_s", t.query_busy_s);
  report->Value("serving.queryall_busy_s", t.queryall_busy_s);
  report->Series("serving.queryall_ms", u.queryall_ms);
  const TracedSpillStore& store = *traced.traced_store;
  report->Value("serving.spill_puts", static_cast<double>(store.puts()));
  report->Value("serving.spill_gets", static_cast<double>(store.gets()));
  report->Value("serving.spill_put_s", store.put_ns() * 1e-9);
  report->Value("serving.spill_get_s", store.get_ns() * 1e-9);
  report->Value("serving.spill_bytes", static_cast<double>(store.bytes()));
  report->Value("serving.evictions", static_cast<double>(evictions));
  report->Value("serving.rehydrations", static_cast<double>(rehydrations));
  report->Value("serving.rehydrations_per_touch",
                static_cast<double>(rehydrations) / std::max<int64_t>(1, t.touches));
  report->Value("serving.contention_ratio",
                median(u.batch_ms) / median(serial_ms));
  report->Value("serving.live_shards_end", static_cast<double>(live_end));
  report->Value("serving.spilled_shards_end", static_cast<double>(spilled_end));
  report->Value("datasets.generate_s", traced.in.generate_s);
  report->Value("trace.overhead_ratio",
                t.ingest_pps / u.ingest_pps);
}

}  // namespace

void RunFleetMixed(const RunConfig& config, Report* report) {
  const FleetSpec spec = SpecFor(config);
  report->Info("generator", "phones_sim");
  report->Info("tenants", spec.tenants);
  report->Info("window", static_cast<double>(spec.window));
  if (config.trace) {
    RunTraced(spec, config, report);
  } else {
    RunMeasured(spec, config, report);
  }
}

}  // namespace perfbench
