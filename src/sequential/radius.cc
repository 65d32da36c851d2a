#include "sequential/radius.h"

#include <limits>

#include "common/logging.h"

namespace fkc {

double ClusteringRadius(const Metric& metric, const std::vector<Point>& window,
                        const std::vector<Point>& centers) {
  return ClusteringRadiusSoA(metric, CoordinatePool(window), centers);
}

double ClusteringRadiusSoA(const Metric& metric,
                           const CoordinatePool& window,
                           const std::vector<Point>& centers) {
  if (window.empty()) return 0.0;
  if (centers.empty()) return std::numeric_limits<double>::infinity();
  const size_t n = window.size();
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  std::vector<double> row(n);
  for (const Point& c : centers) {
    metric.DistanceSoA(c, window, row.data());
    for (size_t i = 0; i < n; ++i) {
      if (row[i] < nearest[i]) nearest[i] = row[i];
    }
  }
  double worst = 0.0;
  for (double d : nearest) {
    if (d > worst) worst = d;
  }
  return worst;
}

std::vector<int> AssignToCenters(const Metric& metric,
                                 const std::vector<Point>& window,
                                 const std::vector<Point>& centers) {
  FKC_CHECK(!centers.empty());
  std::vector<int> assignment;
  assignment.reserve(window.size());
  for (const Point& p : window) {
    int best = 0;
    double best_distance = metric.Distance(p, centers[0]);
    for (size_t c = 1; c < centers.size(); ++c) {
      const double d = metric.Distance(p, centers[c]);
      if (d < best_distance) {
        best_distance = d;
        best = static_cast<int>(c);
      }
    }
    assignment.push_back(best);
  }
  return assignment;
}

}  // namespace fkc
