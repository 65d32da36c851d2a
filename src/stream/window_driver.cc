#include "stream/window_driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "sequential/radius.h"

namespace fkc {

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

}  // namespace fkc
