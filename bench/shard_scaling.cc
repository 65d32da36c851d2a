// Shard-scaling throughput bench for the serving layer: one process serving
// N independent sliding windows (tenants) over a shared thread pool, swept
// over shard counts. Records aggregate updates/s and queries/s per shard
// count into a BENCH_*.json for cross-PR tracking.
//
//   shard_scaling [--dataset=phones] [--points=60000] [--window=2000]
//                 [--max_shards=8] [--threads=0] [--batch=64]
//                 [--query_every=2048] [--delta=1.0]
//                 [--churn_tenants=32] [--churn_active=4]
//                 [--churn_cap=8] [--churn_ttl=4096]
//                 [--contention_clients=8] [--contention_points=1500]
//                 [--contention_idle_tenants=24] [--contention_idle_points=1500]
//                 [--contention_client_pause_ms=10] [--contention_query_pause_ms=10]
//                 [--contention_delta=1.0] [--contention_threads=2]
//                 [--zipf_s=1.1] [--zipf_tenants=0] [--create_every=256]
//                 [--objective=fair-center]
//                 [--burst_every=0] [--burst_size=0] [--cross_tenants=4]
//                 [--spill_dir=<tmp>] [--out=BENCH_shard_scaling.json]
//
// After the shard-count sweep, an eviction-churn scenario drives a much
// larger tenant population than the live-shard cap — the active set slides,
// idle tenants are spilled by periodic EvictIdle sweeps and rehydrated when
// the schedule returns to them — and records incremental-vs-full
// checkpoint sizes (the steady-state delta is a small fraction of the
// fleet blob) plus the DeltaLog's compaction counters. The scenario runs
// twice: once over the in-memory spill store and once over the durable
// FileSpillStore (under --spill_dir, default a fresh directory beside the
// output, removed afterwards), so the JSON records the wall-time price of
// spilling to disk.
//
// After churn, the multi-thread CONTENTION scenarios: N paced client
// threads ingesting hot tenant shards, a population of cold spilled
// tenants, a background thread running continuous QueryAll fleet scans,
// and a maintenance thread running eviction-sweep ticks. The schedule runs
// in several configurations: the manager's own two-level locking (one
// routing lock + per-shard locks), every call wrapped in one external
// global mutex (the old single-internal-mutex serving layer), a
// --zipf_s skewed entry where every client draws keys from one shared
// heavy-tailed tenant population, and a --create_every create-heavy entry
// whose key generations rotate mid-run so shard creation stays on the
// measured path. Each fleet scan pays a store read + full state
// deserialization per cold tenant, so it costs real time: under the global
// mutex that whole scan runs with every hot client blocked, while
// per-shard locking absorbs it into the clients' think time (measurable
// even on a single-core host); the work-sharing wins on top need a
// multi-core runner.
//
// After contention, the CROSS-OBJECTIVE scenario: the same keyed stream is
// replayed into three fleets — default fair-center, default k-median, and a
// mixed fleet where half the tenants are overridden to k-median before
// their first arrival — recording per-objective ingest throughput, final
// objective values, window memory, and full-checkpoint size (the mixed
// fleet's blob carries the fkc-shards-v3 objective table; the pure
// fair-center fleet stays byte-compatible v2). Objective values and
// checkpoint bytes are deterministic; the throughputs are wall-clock.
//
// Wall-clock throughput is hardware-dependent; the JSON also records the
// deterministic per-run totals (updates, queries, shard memory, eviction /
// rehydration / checkpoint-size counters) which are stable across machines
// and usable for regression checks.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "metric/simd_kernels.h"
#include "sequential/jones_fair_center.h"
#include "serving/shard_manager.h"
#include "serving/spill_store.h"
#include "stream/window_driver.h"

namespace {

struct RunResult {
  int shards = 0;
  fkc::ShardedThroughputReport report;
  int64_t memory_points = 0;
};

void PrintChurn(const char* backend, const fkc::ShardedChurnReport& churn) {
  std::printf(
      "# Eviction churn [%s spill]: %.0f updates/s, %lld evictions, "
      "%lld rehydrations, delta %lld B over %lld checkpoints "
      "(%lld rebases, log %lld B) vs %lld B full\n",
      backend, churn.UpdatesPerSecond(),
      static_cast<long long>(churn.evictions),
      static_cast<long long>(churn.rehydrations),
      static_cast<long long>(churn.delta_bytes),
      static_cast<long long>(churn.delta_checkpoints),
      static_cast<long long>(churn.rebases),
      static_cast<long long>(churn.log_bytes),
      static_cast<long long>(churn.full_checkpoint_bytes));
}

void WriteChurnJson(std::ofstream& out, const char* backend,
                    const fkc::ShardedChurnReport& churn) {
  out << "    \"" << backend << "\": {\"updates\": " << churn.updates
      << ", \"updates_per_s\": "
      << fkc::StrFormat("%.1f", churn.UpdatesPerSecond())
      << ", \"evictions\": " << churn.evictions
      << ", \"rehydrations\": " << churn.rehydrations
      << ", \"total_shards\": " << churn.total_shards
      << ", \"live_shards\": " << churn.live_shards
      << ", \"delta_checkpoints\": " << churn.delta_checkpoints
      << ", \"delta_bytes\": " << churn.delta_bytes
      << ", \"rebases\": " << churn.rebases
      << ", \"log_bytes\": " << churn.log_bytes
      << ", \"full_checkpoint_bytes\": " << churn.full_checkpoint_bytes
      << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "phones";
  std::string out_path = "BENCH_shard_scaling.json";
  int64_t points = 60000;
  int64_t window = 2000;
  int64_t max_shards = 8;
  int64_t threads = 0;  // all hardware threads
  int64_t batch = 64;
  int64_t query_every = 2048;
  double delta = 1.0;
  int64_t churn_tenants = 32;
  int64_t churn_active = 4;
  int64_t churn_cap = 8;
  int64_t churn_ttl = 4096;
  int64_t contention_clients = 8;
  int64_t contention_points = 1500;
  int64_t contention_query_pause_ms = 10;
  int64_t contention_client_pause_ms = 10;
  int64_t contention_idle_tenants = 24;
  int64_t contention_idle_points = 1500;
  int64_t contention_threads = 2;
  double contention_delta = 1.0;
  double zipf_s = 1.1;
  int64_t zipf_tenants = 0;
  int64_t create_every = 256;
  std::string objective = "fair-center";
  int64_t burst_every = 0;
  int64_t burst_size = 0;
  int64_t cross_tenants = 4;
  std::string spill_dir;

  fkc::FlagParser flags;
  flags.AddString("dataset", &dataset, "dataset name (see datasets/registry)");
  flags.AddString("out", &out_path, "output JSON path");
  flags.AddInt64("points", &points, "total keyed arrivals per run");
  flags.AddInt64("window", &window, "per-shard window size");
  flags.AddInt64("max_shards", &max_shards,
                 "sweep shard counts 1,2,4,... up to this");
  fkc::AddThreadsFlag(&flags, &threads);
  flags.AddInt64("batch", &batch, "keyed arrivals per IngestBatch");
  flags.AddInt64("query_every", &query_every,
                 "QueryAll fan-out period in arrivals (0 = never)");
  flags.AddDouble("delta", &delta, "coreset precision delta");
  flags.AddInt64("churn_tenants", &churn_tenants,
                 "tenant population of the eviction-churn scenario");
  flags.AddInt64("churn_active", &churn_active,
                 "simultaneously active tenants in the churn scenario");
  flags.AddInt64("churn_cap", &churn_cap,
                 "max_live_shards (LRU cap) in the churn scenario");
  flags.AddInt64("churn_ttl", &churn_ttl,
                 "EvictIdle TTL in arrivals for the churn scenario");
  flags.AddInt64("contention_clients", &contention_clients,
                 "client threads (= tenant shards) in the contention "
                 "scenario (0 = skip it)");
  flags.AddInt64("contention_points", &contention_points,
                 "arrivals each contention client ingests");
  flags.AddInt64("contention_query_pause_ms", &contention_query_pause_ms,
                 "pause between background QueryAll rounds in the "
                 "contention scenario");
  flags.AddInt64("contention_client_pause_ms", &contention_client_pause_ms,
                 "per-client think time between ingest batches in the "
                 "contention scenario (paced arrival streams)");
  flags.AddInt64("contention_idle_tenants", &contention_idle_tenants,
                 "cold spilled tenants each QueryAll round must scan in "
                 "the contention scenario");
  flags.AddInt64("contention_idle_points", &contention_idle_points,
                 "arrivals pre-ingested into each cold tenant (sets the "
                 "per-shard cost of a fleet scan)");
  flags.AddInt64("contention_threads", &contention_threads,
                 "manager pool threads in the contention scenario (the "
                 "work-sharing pool concurrent IngestBatch callers and "
                 "QueryAll rounds interleave on; 1 = no pool)");
  flags.AddDouble("contention_delta", &contention_delta,
                  "coreset precision delta for the contention scenario");
  flags.AddDouble("zipf_s", &zipf_s,
                  "Zipf skew of the skewed contention entry (heavy-tailed "
                  "tenant popularity; 0 = skip the skewed entry)");
  flags.AddInt64("zipf_tenants", &zipf_tenants,
                 "tenant population of the skewed entry (0 = 4x clients)");
  flags.AddInt64("create_every", &create_every,
                 "arrivals between key-generation rotations in the "
                 "create-heavy contention entry (0 = skip it)");
  flags.AddString("objective", &objective,
                  "fleet-default clustering objective of the shard-count "
                  "sweep: fair-center or k-median");
  flags.AddInt64("burst_every", &burst_every,
                 "burst-arrival period of the sweep in arrivals (0 = "
                 "steady batches, no bursts)");
  flags.AddInt64("burst_size", &burst_size,
                 "arrivals delivered as one oversized IngestBatch at the "
                 "start of each burst period (0 = 8x batch)");
  flags.AddInt64("cross_tenants", &cross_tenants,
                 "tenant shards in the cross-objective scenario (0 = "
                 "skip it)");
  flags.AddString("spill_dir", &spill_dir,
                  "directory for the FileSpillStore churn run (default: "
                  "<out>.spill, removed afterwards)");
  auto status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  const fkc::EuclideanMetric metric;
  const fkc::JonesFairCenter jones;
  const int num_threads = fkc::ResolveThreadCount(threads);
  auto objective_kind = fkc::ParseObjectiveTag(objective);
  if (!objective_kind.ok()) {
    std::fprintf(stderr, "%s\n",
                 objective_kind.status().ToString().c_str());
    return 1;
  }

  // The canonical experiment configuration (sum k_i = 14, proportional
  // caps); adaptive range so no distance bounds are needed per tenant.
  const auto prepared = fkc::bench::Prepare(dataset, points, metric);

  std::printf(
      "# Shard-scaling throughput: %lld arrivals, window %lld, batch %lld, "
      "%d threads, QueryAll every %lld\n",
      static_cast<long long>(points), static_cast<long long>(window),
      static_cast<long long>(batch), num_threads,
      static_cast<long long>(query_every));
  std::printf("%-10s %8s %14s %14s %12s %12s %12s\n", "dataset", "shards",
              "updates_per_s", "queries_per_s", "updates", "queries",
              "memory_pts");

  std::vector<RunResult> results;
  for (int64_t shards = 1; shards <= max_shards; shards *= 2) {
    fkc::serving::ShardManagerOptions options;
    options.objective = objective_kind.value();
    options.window.window_size = window;
    options.window.delta = delta;
    options.window.adaptive_range = true;
    options.num_threads = num_threads;
    fkc::serving::ShardManager manager(options, prepared.constraint, &metric,
                                       &jones);

    std::vector<std::string> keys;
    for (int64_t s = 0; s < shards; ++s) {
      keys.push_back(fkc::StrFormat("tenant-%02lld", static_cast<long long>(s)));
    }

    auto stream = fkc::datasets::MakeStream(prepared.dataset);
    fkc::ShardedRunOptions run_options;
    run_options.stream_length = points;
    run_options.batch_size = batch;
    run_options.query_every = query_every;
    run_options.burst_every = burst_every;
    run_options.burst_size = burst_size;

    RunResult result;
    result.shards = static_cast<int>(shards);
    result.report = fkc::RunShardedThroughput(&manager, stream.get(), keys,
                                              run_options);
    result.memory_points = manager.TotalMemory().TotalPoints();
    results.push_back(result);

    std::printf("%-10s %8d %14.0f %14.1f %12lld %12lld %12lld\n",
                dataset.c_str(), result.shards,
                result.report.UpdatesPerSecond(),
                result.report.QueriesPerSecond(),
                static_cast<long long>(result.report.updates),
                static_cast<long long>(result.report.queries),
                static_cast<long long>(result.memory_points));
  }

  // --- Eviction-churn scenario: tenants arriving and expiring under an LRU
  // cap, with periodic EvictIdle sweeps and DeltaLog captures — once per
  // spill backend. The schedules are identical, so the deterministic
  // counters must agree between the two runs; the wall times show what
  // durability costs. ---
  std::printf(
      "# Eviction churn: %lld tenants (%lld active, cap %lld, ttl %lld)\n",
      static_cast<long long>(churn_tenants),
      static_cast<long long>(churn_active), static_cast<long long>(churn_cap),
      static_cast<long long>(churn_ttl));
  // Only a directory this run invented gets deleted afterwards: blowing
  // away a user-supplied --spill_dir (which may pre-exist and hold foreign
  // files) is not this bench's call.
  const bool owns_spill_dir = spill_dir.empty();
  if (owns_spill_dir) spill_dir = out_path + ".spill";
  auto run_churn = [&](std::shared_ptr<fkc::serving::SpillStore> store) {
    fkc::serving::ShardManagerOptions churn_options;
    churn_options.window.window_size = window;
    churn_options.window.delta = delta;
    churn_options.window.adaptive_range = true;
    churn_options.num_threads = num_threads;
    churn_options.max_live_shards = churn_cap;
    churn_options.spill_store = std::move(store);
    fkc::serving::ShardManager manager(churn_options, prepared.constraint,
                                       &metric, &jones);
    auto stream = fkc::datasets::MakeStream(prepared.dataset);
    fkc::ShardedChurnOptions churn_run;
    churn_run.stream_length = points;
    churn_run.batch_size = batch;
    churn_run.tenants = churn_tenants;
    churn_run.active = churn_active;
    churn_run.idle_ttl = churn_ttl;
    return fkc::RunShardedChurn(&manager, stream.get(), churn_run);
  };

  const fkc::ShardedChurnReport churn = run_churn(nullptr);  // in-memory
  PrintChurn("memory", churn);
  const fkc::ShardedChurnReport churn_file =
      run_churn(std::make_shared<fkc::serving::FileSpillStore>(spill_dir));
  PrintChurn("file", churn_file);
  if (owns_spill_dir) {
    std::error_code spill_cleanup;  // best-effort; the bench ran either way
    std::filesystem::remove_all(spill_dir, spill_cleanup);
  }

  // --- Contention scenarios. The same paced-clients schedule runs in
  // several configurations: the manager's own locking vs the emulated
  // single global mutex, plus a Zipf-skewed entry (shared heavy-tailed
  // tenants) and a create-heavy entry (key generations rotating mid-run,
  // so shard creation stays on the measured path). `contention_threads`
  // gives the manager a pool the concurrent IngestBatch callers and
  // QueryAll rounds interleave on (work sharing). ---
  fkc::ShardedContentionReport contention, contention_global,
      contention_zipf, contention_create;
  if (contention_clients > 0) {
    // The contention runs replay prefixes of the same prepared dataset, so
    // fit the scenario to the stream: the cold setup may take at most half
    // of it, and the measured workload shares the rest. The warm-up set is
    // the larger of the client keys and the Zipf rank population.
    const int64_t zipf_warm =
        zipf_s > 0.0
            ? (zipf_tenants > 0 ? zipf_tenants : 4 * contention_clients)
            : 0;
    const int64_t warm_keys = std::max(contention_clients, zipf_warm);
    if (contention_idle_tenants > 0) {
      const int64_t max_idle = (points / 2) / contention_idle_tenants;
      if (contention_idle_points > max_idle) contention_idle_points = max_idle;
      FKC_CHECK_GT(contention_idle_points, 0)
          << "stream too short for cold tenants";
    }
    const int64_t setup_demand =
        contention_idle_tenants * contention_idle_points + warm_keys;
    if (contention_clients * contention_points + setup_demand > points) {
      contention_points = (points - setup_demand) / contention_clients;
      FKC_CHECK_GT(contention_points, 0);
    }
    std::printf(
        "# Contention: %lld clients x %lld arrivals (pause %lld ms), "
        "%lld cold tenants x %lld, QueryAll pause %lld ms, %lld pool "
        "threads\n",
        static_cast<long long>(contention_clients),
        static_cast<long long>(contention_points),
        static_cast<long long>(contention_client_pause_ms),
        static_cast<long long>(contention_idle_tenants),
        static_cast<long long>(contention_idle_points),
        static_cast<long long>(contention_query_pause_ms),
        static_cast<long long>(contention_threads));
    struct ContentionConfig {
      bool global_mutex = false;
      double zipf_s = 0.0;
      int64_t create_every = 0;
    };
    auto run_contention = [&](const ContentionConfig& config) {
      fkc::serving::ShardManagerOptions options;
      options.window.window_size = window;
      options.window.delta = contention_delta;
      options.window.adaptive_range = true;
      options.num_threads = static_cast<int>(contention_threads);
      fkc::serving::ShardManager manager(options, prepared.constraint,
                                         &metric, &jones);
      auto stream = fkc::datasets::MakeStream(prepared.dataset);
      fkc::ShardedContentionOptions contention_run;
      contention_run.client_threads = static_cast<int>(contention_clients);
      contention_run.points_per_client = contention_points;
      contention_run.batch_size = batch;
      contention_run.query_pause_ms = contention_query_pause_ms;
      contention_run.client_pause_ms = contention_client_pause_ms;
      contention_run.idle_tenants = contention_idle_tenants;
      contention_run.idle_points = contention_idle_points;
      contention_run.global_mutex = config.global_mutex;
      contention_run.zipf_s = config.zipf_s;
      contention_run.zipf_tenants = zipf_tenants;
      contention_run.create_every = config.create_every;
      return fkc::RunShardedContention(&manager, stream.get(),
                                       contention_run);
    };
    auto print_contention = [](const char* label,
                               const fkc::ShardedContentionReport& r) {
      std::printf(
          "#   %-16s %10.0f updates/s (%lld query rounds, %lld ticks, "
          "steals %lld)\n",
          label, r.UpdatesPerSecond(),
          static_cast<long long>(r.query_rounds),
          static_cast<long long>(r.maintenance_ticks),
          static_cast<long long>(r.pool_steals));
    };
    contention_global = run_contention({/*global_mutex=*/true});
    print_contention("global mutex:", contention_global);
    contention = run_contention({});
    print_contention("per shard:", contention);
    if (zipf_s > 0.0) {
      ContentionConfig config;
      config.zipf_s = zipf_s;
      contention_zipf = run_contention(config);
      print_contention("zipf skew:", contention_zipf);
    }
    if (create_every > 0) {
      ContentionConfig config;
      config.create_every = create_every;
      contention_create = run_contention(config);
      print_contention("create heavy:", contention_create);
    }
    const double speedup =
        contention_global.UpdatesPerSecond() > 0.0
            ? contention.UpdatesPerSecond() /
                  contention_global.UpdatesPerSecond()
            : 0.0;
    std::printf("#   per shard vs global %.2fx\n", speedup);
  }

  // --- Cross-objective scenario: the same keyed stream into a fair-center
  // fleet, a k-median fleet, and a mixed fleet (odd tenants overridden to
  // k-median before their first arrival). Objective values, memory, and
  // checkpoint bytes are deterministic; updates/s is wall-clock. ---
  struct CrossObjectiveResult {
    std::string mode;
    fkc::ShardedThroughputReport report;
    int64_t memory_points = 0;
    int64_t checkpoint_bytes = 0;
    double objective_value_sum = 0.0;
    int64_t answered = 0;
  };
  std::vector<CrossObjectiveResult> cross_results;
  if (cross_tenants > 0) {
    auto run_cross = [&](const char* mode, fkc::ObjectiveKind kind,
                         bool mixed) {
      fkc::serving::ShardManagerOptions options;
      options.objective = kind;
      options.window.window_size = window;
      options.window.delta = delta;
      options.window.adaptive_range = true;
      options.num_threads = num_threads;
      fkc::serving::ShardManager manager(options, prepared.constraint,
                                         &metric, &jones);
      std::vector<std::string> keys;
      for (int64_t s = 0; s < cross_tenants; ++s) {
        keys.push_back(
            fkc::StrFormat("tenant-%02lld", static_cast<long long>(s)));
        if (mixed && (s % 2) == 1) {
          FKC_CHECK_OK(manager.SetTenantObjective(
              keys.back(), fkc::ObjectiveKind::kKMedian));
        }
      }
      auto stream = fkc::datasets::MakeStream(prepared.dataset);
      fkc::ShardedRunOptions run_options;
      run_options.stream_length = points;
      run_options.batch_size = batch;
      run_options.query_every = 0;  // one final query below, not periodic
      run_options.burst_every = burst_every;
      run_options.burst_size = burst_size;
      CrossObjectiveResult result;
      result.mode = mode;
      result.report =
          fkc::RunShardedThroughput(&manager, stream.get(), keys, run_options);
      for (const auto& answer : manager.QueryAll()) {
        if (!answer.solution.ok()) continue;
        result.objective_value_sum += answer.solution.value().value;
        ++result.answered;
      }
      result.memory_points = manager.TotalMemory().TotalPoints();
      auto blob = manager.CheckpointAll();
      FKC_CHECK_OK(blob.status());
      result.checkpoint_bytes = static_cast<int64_t>(blob.value().size());
      return result;
    };
    std::printf("# Cross objective: %lld tenants, %lld arrivals\n",
                static_cast<long long>(cross_tenants),
                static_cast<long long>(points));
    cross_results.push_back(
        run_cross("fair_center", fkc::ObjectiveKind::kFairCenter, false));
    cross_results.push_back(
        run_cross("k_median", fkc::ObjectiveKind::kKMedian, false));
    cross_results.push_back(
        run_cross("mixed", fkc::ObjectiveKind::kFairCenter, true));
    for (const auto& r : cross_results) {
      std::printf(
          "#   %-12s %10.0f updates/s, value sum %.3f over %lld shards, "
          "%lld pts, checkpoint %lld B\n",
          r.mode.c_str(), r.report.UpdatesPerSecond(), r.objective_value_sum,
          static_cast<long long>(r.answered),
          static_cast<long long>(r.memory_points),
          static_cast<long long>(r.checkpoint_bytes));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n  \"bench\": \"shard_scaling\",\n";
  out << "  \"simd_kernels\": \"" << fkc::simd::ActiveKernels().name
      << "\",\n";
  // FKC_BUILD_TYPE is CMAKE_BUILD_TYPE, defined by CMakeLists.txt.
  out << "  \"host_threads\": " << fkc::ThreadPool::HardwareThreads()
      << ",\n  \"build_type\": \"" << FKC_BUILD_TYPE << "\",\n";
  out << "  \"dataset\": \"" << dataset << "\",\n";
  out << "  \"points\": " << points << ",\n  \"window\": " << window
      << ",\n  \"batch\": " << batch << ",\n  \"threads\": " << num_threads
      << ",\n  \"query_every\": " << query_every << ",\n";
  out << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"shards\": " << r.shards
        << ", \"updates\": " << r.report.updates
        << ", \"queries\": " << r.report.queries
        << ", \"updates_per_s\": " << fkc::StrFormat(
               "%.1f", r.report.UpdatesPerSecond())
        << ", \"queries_per_s\": " << fkc::StrFormat(
               "%.1f", r.report.QueriesPerSecond())
        << ", \"memory_points\": " << r.memory_points << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"churn\": {\"tenants\": " << churn_tenants
      << ", \"active\": " << churn_active << ", \"cap\": " << churn_cap
      << ", \"ttl\": " << churn_ttl << ",\n";
  WriteChurnJson(out, "memory", churn);
  out << ",\n";
  WriteChurnJson(out, "file", churn_file);
  out << "\n  }";
  if (contention_clients > 0) {
    const double speedup =
        contention_global.UpdatesPerSecond() > 0.0
            ? contention.UpdatesPerSecond() /
                  contention_global.UpdatesPerSecond()
            : 0.0;
    auto write_contention = [&out](const char* name,
                                   const fkc::ShardedContentionReport& r) {
      out << "    \"" << name << "\": {\"updates\": " << r.updates
          << ", \"updates_per_s\": "
          << fkc::StrFormat("%.1f", r.UpdatesPerSecond())
          << ", \"shards\": " << r.shards
          << ", \"pool_steals\": " << r.pool_steals
          << ", \"query_rounds\": " << r.query_rounds
          << ", \"maintenance_ticks\": " << r.maintenance_ticks << "}";
    };
    out << ",\n  \"contention\": {\"client_threads\": " << contention_clients
        << ", \"points_per_client\": " << contention_points
        << ", \"idle_tenants\": " << contention_idle_tenants
        << ", \"idle_points\": " << contention_idle_points
        << ", \"client_pause_ms\": " << contention_client_pause_ms
        << ", \"query_pause_ms\": " << contention_query_pause_ms
        << ", \"pool_threads\": " << contention_threads
        << ", \"host_threads\": " << fkc::ThreadPool::HardwareThreads()
        << ", \"zipf_s\": " << fkc::StrFormat("%.2f", zipf_s)
        << ", \"create_every\": " << create_every << ",\n";
    write_contention("global_mutex", contention_global);
    out << ",\n";
    write_contention("per_shard", contention);
    if (zipf_s > 0.0) {
      out << ",\n";
      write_contention("zipf", contention_zipf);
    }
    if (create_every > 0) {
      out << ",\n";
      write_contention("create_heavy", contention_create);
    }
    out << ",\n    \"speedup\": " << fkc::StrFormat("%.2f", speedup)
        << "\n  }";
  }
  if (!cross_results.empty()) {
    out << ",\n  \"cross_objective\": {\"tenants\": " << cross_tenants
        << ", \"burst_every\": " << burst_every
        << ", \"burst_size\": " << burst_size << ",\n";
    for (size_t i = 0; i < cross_results.size(); ++i) {
      const CrossObjectiveResult& r = cross_results[i];
      out << "    \"" << r.mode << "\": {\"updates\": " << r.report.updates
          << ", \"updates_per_s\": "
          << fkc::StrFormat("%.1f", r.report.UpdatesPerSecond())
          << ", \"bursts\": " << r.report.bursts
          << ", \"shards\": " << r.answered
          << ", \"objective_value_sum\": "
          << fkc::StrFormat("%.3f", r.objective_value_sum)
          << ", \"memory_points\": " << r.memory_points
          << ", \"checkpoint_bytes\": " << r.checkpoint_bytes << "}"
          << (i + 1 < cross_results.size() ? "," : "") << "\n";
    }
    out << "  }";
  }
  out << "\n}\n";
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
