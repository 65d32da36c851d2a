// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into each library layer, plus decorators for the three public
// interfaces the benchmark hands to the library (Metric, FairCenterSolver,
// SpillStore). Nothing here reaches inside the library: a layer is
// observed only at the boundary where the benchmark (or one of its
// decorators) meets it.
//
// Every span charges its duration to its layer's busy time and its self
// time (duration minus the spans it encloses on the same thread) to the
// layer's self time. Spans are aggregated in memory per (layer, phase) as
// they close — the per-layer report needs only the sums and counts, and an
// individual record per distance call would cost more memory than the
// workloads themselves. The phase (update or query) is inherited from the
// outermost span on the thread, so a metric call made inside a query is
// charged to the query path.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "sequential/fair_center_solver.h"
#include "serving/spill_store.h"

namespace perfbench {

enum Layer { kMetric = 0, kCore, kSequential, kServing, kReplication, kNumLayers };

/// Which end-to-end path a span belongs to; set by the outermost span.
enum Phase { kPhaseNone = 0, kPhaseUpdate, kPhaseQuery, kNumPhases };

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread sums, merged when the benchmark reads them. Relaxed atomics:
/// each slot has one writer (its thread), and the reader runs after the
/// workload's threads have synchronized with it (join or pool barrier).
struct ThreadTotals {
  std::atomic<int64_t> busy_ns[kNumLayers][kNumPhases] = {};
  std::atomic<int64_t> self_ns[kNumLayers][kNumPhases] = {};
  std::atomic<int64_t> calls[kNumLayers][kNumPhases] = {};
  std::atomic<int64_t> metric_evals[kNumPhases] = {};
};

/// Owns every thread's totals. One tracer per traced run; a null tracer
/// makes every Span a no-op.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  ThreadTotals* ForThisThread();

  int64_t Busy(Layer layer, Phase phase) const;
  int64_t BusyAll(Layer layer) const;
  int64_t Self(Layer layer, Phase phase) const;
  int64_t Calls(Layer layer, Phase phase) const;
  int64_t CallsAll(Layer layer) const;
  int64_t MetricEvals(Phase phase) const;

 private:
  template <typename Fn>
  int64_t Sum(Fn fn) const;

  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTotals>> threads_;
};

/// RAII span: times one call into `layer`. With a null tracer it does
/// nothing and costs one branch.
class Span {
 public:
  Span(Tracer* tracer, Layer layer, Phase phase = kPhaseNone);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Adds distance evaluations to the current phase (metric decorator).
  void CountEvals(int64_t evals);

 private:
  Tracer* tracer_;
  Layer layer_;
  Phase phase_ = kPhaseNone;
  Span* parent_ = nullptr;
  int64_t start_ns_ = 0;
  int64_t child_ns_ = 0;
};

/// Metric decorator: every distance entry point runs inside a metric span
/// and counts its pair evaluations. Results come from the wrapped metric
/// unchanged, so the engine's state is bit-identical with and without it.
class TracedMetric final : public fkc::Metric {
 public:
  TracedMetric(const fkc::Metric* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  double Distance(const fkc::Point& a, const fkc::Point& b) const override;
  void DistanceMany(const fkc::Point& p, const fkc::Point* const* points,
                    size_t count, double* out) const override;
  void DistanceSoA(const fkc::Point& p, const fkc::CoordinatePool& pool,
                   double* out) const override;
  std::string Name() const override { return inner_->Name(); }

  /// Starts (non-null) or stops recording; call while no thread uses it.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  const fkc::Metric* inner_;
  Tracer* tracer_;
};

/// Solver decorator: times Solve and counts calls and input points.
class TracedSolver final : public fkc::FairCenterSolver {
 public:
  TracedSolver(const fkc::FairCenterSolver* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  fkc::Result<fkc::FairCenterSolution> Solve(
      const fkc::Metric& metric, const std::vector<fkc::Point>& points,
      const fkc::ColorConstraint& constraint) const override;
  double ApproximationFactor() const override {
    return inner_->ApproximationFactor();
  }
  std::string Name() const override { return inner_->Name(); }

  int64_t input_points() const { return input_points_.load(); }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  const fkc::FairCenterSolver* inner_;
  Tracer* tracer_;
  mutable std::atomic<int64_t> input_points_{0};
};

/// Spill-store decorator: counts and times Put/Get and the bytes moved.
class TracedSpillStore final : public fkc::serving::SpillStore {
 public:
  fkc::Status Put(const std::string& key, std::string blob) override;
  fkc::Result<std::string> Get(const std::string& key) const override;
  fkc::Status Erase(const std::string& key) override {
    return inner_.Erase(key);
  }
  fkc::Result<int64_t> GarbageCollect(
      const std::set<std::string>& keep) override {
    return inner_.GarbageCollect(keep);
  }
  fkc::Result<int64_t> Count() const override { return inner_.Count(); }
  const char* Name() const override { return inner_.Name(); }

  int64_t puts() const { return puts_.load(); }
  int64_t gets() const { return gets_.load(); }
  int64_t put_ns() const { return put_ns_.load(); }
  int64_t get_ns() const { return get_ns_.load(); }
  int64_t bytes() const { return bytes_.load(); }

 private:
  fkc::serving::InMemorySpillStore inner_;
  std::atomic<int64_t> puts_{0};
  mutable std::atomic<int64_t> gets_{0};
  std::atomic<int64_t> put_ns_{0};
  mutable std::atomic<int64_t> get_ns_{0};
  mutable std::atomic<int64_t> bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
