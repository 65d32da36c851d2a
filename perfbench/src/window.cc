// window-update and window-query: one FairCenterSlidingWindow driven by a
// single closed-loop stream operator that alternates UpdateBatch and Query
// calls and waits for each reply.
//
//   window-update  covtype simulator (d=54, ell=7), fixed range, delta=1,
//                  one thread, batches of 64, one Query per 5000 arrivals:
//                  the update path (metric kernels on wide points, core
//                  attractor scans and expiry) dominates.
//   window-query   higgs simulator (d=7, ell=2), adaptive range, delta=0.5,
//                  one Query per 4 arrivals: the query path (PlanQuery,
//                  coreset assembly, the sequential solver) dominates. The
//                  engine runs on one thread: at two, the parallel ladder
//                  validation makes query latency bimodal (it pays off only
//                  when the pool's worker wakes in time), and its median
//                  jumps between the modes from run to run. The two-thread
//                  pool is measured by the traced run's thread-tax replay.
#include <algorithm>
#include <memory>
#include <vector>

#include "common.h"
#include "core/fair_center_sliding_window.h"
#include "datasets/covtype_sim.h"
#include "datasets/higgs_sim.h"
#include "sequential/jones_fair_center.h"

namespace perfbench {
namespace {

struct WindowSpec {
  const char* generator = "";
  int ell = 0;
  int64_t window = 0;
  double delta = 0.0;
  bool adaptive = false;
  /// Threads of the traced run's thread-tax replay (0: no replay); the
  /// closed loop itself runs the engine on one thread.
  int tax_threads = 0;
  int64_t batch = 0;
  int64_t query_every = 0;
  /// Quality is sampled at queries 0, stride, 2*stride, ... (samples of
  /// them), early enough that every run reaches them all.
  int quality_samples = 0;
  int64_t quality_stride = 1;
  /// Queries between restart-cost samples, spread over the whole run.
  int64_t restore_every = 1;
  /// Arrivals of each pass of the traced run (a multiple of query_every).
  int64_t trace_arrivals = 0;
};

WindowSpec SpecFor(const RunConfig& config) {
  WindowSpec spec;
  if (config.workload == "window-update") {
    spec.generator = "covtype_sim";
    spec.ell = 7;
    spec.window = config.tiny ? 400 : 10000;
    spec.delta = 1.0;
    spec.adaptive = false;
    spec.batch = 64;
    spec.query_every = config.tiny ? 200 : 5000;
    spec.quality_samples = 6;
    spec.quality_stride = 1;
    spec.restore_every = config.tiny ? 2 : 4;
    spec.trace_arrivals = 8 * spec.query_every;
  } else {
    spec.generator = "higgs_sim";
    spec.ell = 2;
    spec.window = config.tiny ? 400 : 10000;
    spec.delta = 0.5;
    spec.adaptive = true;
    spec.tax_threads = 2;
    spec.batch = 4;
    spec.query_every = 4;
    spec.quality_samples = 12;
    spec.quality_stride = config.tiny ? 10 : 250;
    spec.restore_every = config.tiny ? 20 : 2000;
    spec.trace_arrivals = config.tiny ? 400 : 16000;
  }
  return spec;
}

constexpr double kBeta = 2.0;

/// The generated stream: a pool of simulator points cycled in order. The
/// pool is kInstances windows long, so no window ever holds a point twice.
/// Each window-long chunk is its own simulator instance (its own sub-seed):
/// a simulator seed also draws the dataset's structure (cluster means, the
/// embedding), and a run that crosses many instances measures their average
/// instead of one draw, which keeps the figures steady from seed to seed.
/// With eight, window-query's restore cost still followed the seed (0.014
/// against 0.020 s, repeatably; a spread of 0.17 over ten seeds). A window
/// holds at most two instances.
constexpr uint64_t kInstances = 16;

struct WindowInputs {
  std::vector<fkc::Point> pool;
  fkc::ColorConstraint caps;
  double d_min = 0.0;
  double d_max = 0.0;
  double generate_s = 0.0;
};

WindowInputs MakeInputs(const WindowSpec& spec, uint64_t seed,
                        const fkc::Metric& metric) {
  WindowInputs in;
  const int64_t start = NowNanos();
  for (uint64_t chunk = 0; chunk < kInstances; ++chunk) {
    std::vector<fkc::Point> points;
    if (std::string(spec.generator) == "covtype_sim") {
      fkc::datasets::CovtypeSimOptions options;
      options.num_points = spec.window;
      options.seed = SubSeed(seed, 10 + chunk);
      points = fkc::datasets::GenerateCovtypeSim(options);
    } else {
      fkc::datasets::HiggsSimOptions options;
      options.num_points = spec.window;
      options.seed = SubSeed(seed, 20 + chunk);
      points = fkc::datasets::GenerateHiggsSim(options);
    }
    in.pool.insert(in.pool.end(), points.begin(), points.end());
  }
  in.generate_s = SecondsSince(start);
  in.caps = PaperCaps(in.pool, spec.ell);
  if (!spec.adaptive) {
    // Fixed range ("Ours") is given the stream's distance bounds, here from
    // the pairwise distances of a subsample with 2x slack. The lower bound
    // is their 0.1% quantile rather than their minimum: the minimum is an
    // extreme value that moves from seed to seed across a power of
    // (1 + beta), adding or dropping the ladder's lowest guess, the most
    // expensive one to maintain. Both bounds stay far outside the k-center
    // radii queries select (quality_ratio checks the answers).
    std::vector<fkc::Point> sample;
    const size_t stride = std::max<size_t>(1, in.pool.size() / 2000);
    for (size_t i = 0; i < in.pool.size(); i += stride) {
      sample.push_back(in.pool[i]);
    }
    std::vector<double> distances;
    distances.reserve(sample.size() * (sample.size() - 1) / 2);
    for (size_t i = 0; i < sample.size(); ++i) {
      for (size_t j = i + 1; j < sample.size(); ++j) {
        distances.push_back(metric.Distance(sample[i], sample[j]));
      }
    }
    auto low = distances.begin() + distances.size() / 1000;
    std::nth_element(distances.begin(), low, distances.end());
    in.d_min = *low / 2.0;
    in.d_max = *std::max_element(distances.begin(), distances.end()) * 2.0;
  }
  return in;
}

struct WindowState {
  WindowInputs in;
  std::unique_ptr<fkc::FairCenterSlidingWindow> window;
  int64_t consumed = 0;  ///< arrivals fed so far (warm-up included)

  std::vector<fkc::Point> NextBatch(int64_t n) const {
    std::vector<fkc::Point> batch;
    batch.reserve(n);
    const int64_t size = static_cast<int64_t>(in.pool.size());
    for (int64_t i = 0; i < n; ++i) {
      batch.push_back(in.pool[(consumed + i) % size]);
    }
    return batch;
  }

  /// The exact current window, oldest first.
  std::vector<fkc::Point> ExactWindow(int64_t window_size) const {
    std::vector<fkc::Point> out;
    const int64_t size = static_cast<int64_t>(in.pool.size());
    for (int64_t t = consumed - window_size; t < consumed; ++t) {
      out.push_back(in.pool[t % size]);
    }
    return out;
  }
};

fkc::SlidingWindowOptions EngineOptions(const WindowSpec& spec,
                                        const WindowInputs& in, int threads) {
  fkc::SlidingWindowOptions options;
  options.window_size = spec.window;
  options.beta = kBeta;
  options.delta = spec.delta;
  options.adaptive_range = spec.adaptive;
  options.d_min = in.d_min;
  options.d_max = in.d_max;
  options.num_threads = threads;
  return options;
}

/// Input generation, engine construction, and warm-up until the window is
/// full: everything setup_s covers.
WindowState Setup(const WindowSpec& spec, uint64_t seed,
                    const fkc::Metric* metric,
                    const fkc::FairCenterSolver* solver) {
  WindowState state;
  state.in = MakeInputs(spec, seed, *metric);
  state.window = std::make_unique<fkc::FairCenterSlidingWindow>(
      EngineOptions(spec, state.in, 1), state.in.caps, metric,
      solver);
  while (state.consumed < spec.window) {
    const int64_t n = std::min(spec.batch, spec.window - state.consumed);
    state.window->UpdateBatch(state.NextBatch(n));
    state.consumed += n;
  }
  return state;
}

struct DriveResult {
  std::vector<double> batch_ms;
  std::vector<double> query_ms;
  int64_t arrivals = 0;
  int64_t queries = 0;
  double ingest_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t cap_violations = 0;
  std::vector<double> quality;
  int64_t quality_violations = 0;
  double coreset_sum = 0.0;
  double guesses_inspected_sum = 0.0;
  /// Stored points after every query: memory_points is their mean, so it
  /// reflects the whole run rather than wherever the stream stopped.
  double memory_sum = 0.0;
  /// Restart cost: seconds to rebuild the engine from its checkpoint,
  /// sampled every restore_every queries across the run.
  std::vector<double> recover_s;
  int64_t round_trip_failures = 0;
  /// The size of every batch, in order: the thread-tax replay feeds
  /// exactly these.
  std::vector<int64_t> batch_sizes;
  /// Median gauge probe over the run, in ns.
  double probe_ns = 0.0;
  /// Share of the timed calls' wall time spent off the core.
  double off_cpu_share = 0.0;
};

/// The closed loop: UpdateBatch, and every query_every arrivals a Query.
/// Runs `seconds` of loop time, or exactly `fixed_arrivals` when positive.
/// With `sample`, quality and restart-cost samples are taken with the
/// loop's clock paused. A gauge probe before every fourth batch (also
/// outside the loop's clock) scales each timing to reference-core time.
DriveResult Drive(const WindowSpec& spec, WindowState* state,
                  Tracer* tracer, const fkc::Metric& plain_metric,
                  const fkc::FairCenterSolver& plain_solver, double seconds,
                  int64_t fixed_arrivals, bool sample) {
  DriveResult r;
  SpeedGauge gauge(fixed_arrivals == 0);
  CpuTimer timer(fixed_arrivals == 0);
  std::vector<double> probe_samples;
  int64_t since_query = 0;
  const int64_t loop_start = NowNanos();
  double paused_s = 0.0;
  while (true) {
    if (fixed_arrivals > 0 ? r.arrivals >= fixed_arrivals
                           : SecondsSince(loop_start) - paused_s >= seconds) {
      break;
    }
    const int64_t n = std::min(spec.batch, spec.query_every - since_query);
    std::vector<fkc::Point> batch = state->NextBatch(n);
    const int64_t probe = NowNanos();
    gauge.Tick(4);
    paused_s += SecondsSince(probe);
    probe_samples.push_back(gauge.ProbeNs());
    timer.Start();
    {
      Span span(tracer, kCore, kPhaseUpdate);
      state->window->UpdateBatch(std::move(batch));
    }
    double elapsed = timer.Stop() * gauge.Scale();
    r.batch_ms.push_back(elapsed * 1e-6);
    r.batch_sizes.push_back(n);
    r.ingest_s += elapsed * 1e-9;
    state->consumed += n;
    r.arrivals += n;
    since_query += n;
    ++r.attempted;
    if (since_query < spec.query_every) continue;

    since_query = 0;
    fkc::QueryStats stats;
    timer.Start();
    auto answer = [&] {
      Span span(tracer, kCore, kPhaseQuery);
      return state->window->Query(&stats);
    }();
    elapsed = timer.Stop() * gauge.Scale();
    r.query_ms.push_back(elapsed * 1e-6);
    ++r.attempted;
    const int64_t q = r.queries++;
    r.memory_sum +=
        static_cast<double>(state->window->Memory().TotalPoints());
    r.coreset_sum += static_cast<double>(stats.coreset_size);
    r.guesses_inspected_sum += stats.guesses_inspected;
    if (sample && q % spec.restore_every == 0) {
      const int64_t pause = NowNanos();
      const std::string blob = state->window->SerializeState();
      timer.Start();
      auto restored = fkc::FairCenterSlidingWindow::DeserializeState(
          blob, &plain_metric, &plain_solver);
      r.recover_s.push_back(timer.Stop() * 1e-9 * gauge.Scale());
      if (!restored.ok() || restored.value().SerializeState() != blob) {
        ++r.round_trip_failures;
      }
      paused_s += SecondsSince(pause);
    }
    if (!answer.ok()) {
      ++r.failed;
      continue;
    }
    if (!state->in.caps.IsFeasible(answer.value().centers)) {
      ++r.failed;
      ++r.cap_violations;
    }
    if (sample && q % spec.quality_stride == 0 &&
        q / spec.quality_stride < spec.quality_samples) {
      const int64_t pause = NowNanos();
      const QualitySample s = MeasureQuality(
          plain_metric, state->ExactWindow(spec.window),
          answer.value().centers, state->in.caps, spec.delta, kBeta);
      r.quality.push_back(s.ratio);
      if (!s.within_bound) ++r.quality_violations;
      paused_s += SecondsSince(pause);
    }
  }
  r.off_cpu_share = timer.OffShare();
  if (!probe_samples.empty()) {
    auto mid = probe_samples.begin() + probe_samples.size() / 2;
    std::nth_element(probe_samples.begin(), mid, probe_samples.end());
    r.probe_ns = *mid;
  }
  return r;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void ReportAnswers(const DriveResult& r, Report* report) {
  report->Attempt(r.attempted, r.failed);
  report->Check("caps", r.cap_violations == 0,
                std::to_string(r.cap_violations) + " of " +
                    std::to_string(r.queries) + " answers violate a cap");
}

/// Feeds the arrivals of a drive (warm-up, then the same batches) into a
/// fresh engine with `threads` threads, without queries. Returns the update
/// seconds of the driven part and the final state digest.
std::pair<double, std::string> ReplayUpdates(const WindowSpec& spec,
                                             const WindowState& source,
                                             const DriveResult& drive,
                                             const fkc::Metric* metric,
                                             const fkc::FairCenterSolver* solver,
                                             int threads) {
  WindowState replay;
  replay.in = source.in;
  replay.window = std::make_unique<fkc::FairCenterSlidingWindow>(
      EngineOptions(spec, replay.in, threads), replay.in.caps, metric, solver);
  while (replay.consumed < spec.window) {
    const int64_t n = std::min(spec.batch, spec.window - replay.consumed);
    replay.window->UpdateBatch(replay.NextBatch(n));
    replay.consumed += n;
  }
  double seconds = 0.0;
  for (int64_t n : drive.batch_sizes) {
    std::vector<fkc::Point> batch = replay.NextBatch(n);
    const int64_t start = NowNanos();
    replay.window->UpdateBatch(std::move(batch));
    seconds += SecondsSince(start);
    replay.consumed += n;
  }
  return {seconds, Digest(replay.window->SerializeState())};
}

void RunMeasured(const WindowSpec& spec, const RunConfig& config,
                 Report* report) {
  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter solver;
  std::vector<double> setup_s;
  SpeedGauge gauge;
  WindowState state;
  for (int i = 0; i < 3; ++i) {
    state = WindowState();  // release the previous setup first
    for (int p = 0; p < 5; ++p) gauge.Probe();
    const int64_t start = NowNanos();
    state = Setup(spec, config.seed, &metric, &solver);
    setup_s.push_back(SecondsSince(start) * gauge.Scale());
  }
  const DriveResult r = Drive(spec, &state, nullptr, metric, solver,
                              config.seconds, 0, true);
  ReportAnswers(r, report);
  CheckOnCpu(r.off_cpu_share, report);
  report->Check("quality_bound", r.quality_violations == 0,
                std::to_string(r.quality_violations) + " of " +
                    std::to_string(r.quality.size()) +
                    " sampled ratios exceed 3+eps");
  report->Check("quality_sampled",
                static_cast<int>(r.quality.size()) == spec.quality_samples,
                std::to_string(r.quality.size()) + " of " +
                    std::to_string(spec.quality_samples) +
                    " quality instants reached");

  report->Check("checkpoint_round_trip",
                !r.recover_s.empty() && r.round_trip_failures == 0,
                std::to_string(r.round_trip_failures) + " of " +
                    std::to_string(r.recover_s.size()) +
                    " restored engines re-serialize differently");

  report->Series("setup_s", setup_s);
  report->Series("ingest_batch_ms", r.batch_ms);
  report->Series("query_ms", r.query_ms);
  report->Series("recover_s", r.recover_s);
  report->Value("ingest_pps", r.arrivals / r.ingest_s);
  report->Value("memory_points",
                r.memory_sum / std::max<int64_t>(1, r.queries));
  report->Value("quality_ratio", Mean(r.quality));
  report->Value("peak_rss_mb", PeakRssMb());
  report->Info("probe_ns", r.probe_ns);
}

void RunTraced(const WindowSpec& spec, const RunConfig& config,
               Report* report) {
  const fkc::EuclideanMetric plain_metric;
  const fkc::JonesFairCenter plain_solver;

  // Pass 1, untraced: the reference state and ingest rate.
  WindowState plain =
      Setup(spec, config.seed, &plain_metric, &plain_solver);
  const DriveResult u = Drive(spec, &plain, nullptr, plain_metric,
                              plain_solver, 0.0, spec.trace_arrivals, false);
  const std::string plain_digest = Digest(plain.window->SerializeState());
  ReportAnswers(u, report);

  // Pass 2, traced: the same inputs and calls, through the decorators.
  Tracer tracer;
  TracedMetric metric(&plain_metric, nullptr);
  TracedSolver solver(&plain_solver, nullptr);
  WindowState traced = Setup(spec, config.seed, &metric, &solver);
  metric.set_tracer(&tracer);
  solver.set_tracer(&tracer);
  const int64_t sweeps_before = traced.window->ExpirySweeps();
  const DriveResult t = Drive(spec, &traced, &tracer, plain_metric,
                              plain_solver, 0.0, spec.trace_arrivals, false);
  ReportAnswers(t, report);
  const std::string traced_digest = Digest(traced.window->SerializeState());
  report->Check("trace_digest", plain_digest == traced_digest,
                "untraced " + plain_digest + " vs traced " + traced_digest);

  const double arrivals = static_cast<double>(t.arrivals);
  const double queries = static_cast<double>(std::max<int64_t>(1, t.queries));
  const double core_update = tracer.Busy(kCore, kPhaseUpdate) * 1e-9;
  const double core_query = tracer.Busy(kCore, kPhaseQuery) * 1e-9;
  const double metric_update = tracer.Busy(kMetric, kPhaseUpdate) * 1e-9;
  const double metric_query = tracer.Busy(kMetric, kPhaseQuery) * 1e-9;
  const double solve_s = tracer.BusyAll(kSequential) * 1e-9;
  const int64_t solve_calls = tracer.CallsAll(kSequential);
  report->Value("metric.evals_per_arrival",
                tracer.MetricEvals(kPhaseUpdate) / arrivals);
  report->Value("metric.evals_per_query",
                tracer.MetricEvals(kPhaseQuery) / queries);
  report->Value("metric.busy_s_update", metric_update);
  report->Value("metric.busy_s_query", metric_query);
  report->Value("metric.share_update",
                core_update > 0 ? metric_update / core_update : 0.0);
  report->Value("core.update_self_s", tracer.Self(kCore, kPhaseUpdate) * 1e-9);
  report->Value("core.query_self_s", tracer.Self(kCore, kPhaseQuery) * 1e-9);
  report->Value("core.expiry_sweeps_per_arrival",
                (traced.window->ExpirySweeps() - sweeps_before) / arrivals);
  report->Value("core.coreset_size_mean", t.coreset_sum / queries);
  report->Value("core.guesses_inspected_mean",
                t.guesses_inspected_sum / queries);
  report->Value("core.guesses",
                static_cast<double>(traced.window->Memory().guesses));
  report->Value("sequential.solve_busy_s", solve_s);
  report->Value("sequential.solve_calls", static_cast<double>(solve_calls));
  report->Value("sequential.solve_input_points_mean",
                solve_calls > 0 ? static_cast<double>(solver.input_points()) /
                                      solve_calls
                                : 0.0);
  report->Value("sequential.share_query",
                core_query > 0 ? solve_s / core_query : 0.0);
  report->Value("datasets.generate_s", traced.in.generate_s);
  report->Value("trace.overhead_ratio",
                (t.arrivals / t.ingest_s) / (u.arrivals / u.ingest_s));

  if (spec.tax_threads > 1) {
    // The thread tax: the same updates on the pool and on one thread. Their
    // states must match bit for bit.
    const auto multi = ReplayUpdates(spec, plain, u, &plain_metric,
                                     &plain_solver, spec.tax_threads);
    const auto single =
        ReplayUpdates(spec, plain, u, &plain_metric, &plain_solver, 1);
    report->Value("common.thread_tax", multi.first / single.first);
    report->Check("thread_count_determinism", multi.second == single.second,
                  std::to_string(spec.tax_threads) + " threads " +
                      multi.second + " vs 1 thread " + single.second);
  }
}

}  // namespace

void RunWindowWorkload(const RunConfig& config, Report* report) {
  const WindowSpec spec = SpecFor(config);
  report->Info("generator", spec.generator);
  report->Info("window", static_cast<double>(spec.window));
  report->Info("delta", spec.delta);
  if (config.trace) {
    RunTraced(spec, config, report);
  } else {
    RunMeasured(spec, config, report);
  }
}

}  // namespace perfbench
