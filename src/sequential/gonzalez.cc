#include "sequential/gonzalez.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace fkc {

GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points, int k,
                               int first_index) {
  return GonzalezKCenter(metric, points, CoordinatePool(points), k,
                         first_index);
}

GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points,
                               const CoordinatePool& pool, int k,
                               int first_index,
                               std::vector<double>* head_rows) {
  GonzalezResult result;
  if (head_rows != nullptr) head_rows->clear();
  if (points.empty() || k <= 0) return result;
  FKC_CHECK_GE(first_index, 0);
  FKC_CHECK_LT(first_index, static_cast<int>(points.size()));
  FKC_CHECK_EQ(pool.size(), points.size());

  const size_t n = points.size();
  const int heads_wanted = std::min(k, static_cast<int>(n));
  result.head_indices.reserve(heads_wanted);
  result.insertion_distances.reserve(heads_wanted);

  // One row per head when the caller keeps them, else one reused row.
  std::vector<double> scratch;
  std::vector<double>& rows = head_rows != nullptr ? *head_rows : scratch;
  rows.resize(head_rows != nullptr ? heads_wanted * n : n);

  // nearest[i] = distance from point i to the current head set.
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());

  int next_head = first_index;
  double next_distance = std::numeric_limits<double>::infinity();
  for (int j = 0; j < heads_wanted; ++j) {
    result.head_indices.push_back(next_head);
    result.insertion_distances.push_back(next_distance);

    double* row = head_rows != nullptr ? rows.data() + j * n : rows.data();
    metric.DistanceSoA(points[next_head], pool, row);
    next_distance = 0.0;
    next_head = -1;
    for (size_t i = 0; i < n; ++i) {
      if (row[i] < nearest[i]) nearest[i] = row[i];
      if (nearest[i] > next_distance) {
        next_distance = nearest[i];
        next_head = static_cast<int>(i);
      }
    }
    if (next_head == -1) {
      // All points coincide with the selected heads.
      next_distance = 0.0;
      break;
    }
  }
  if (head_rows != nullptr) rows.resize(result.head_indices.size() * n);

  result.coverage_radius =
      result.head_indices.empty() ? 0.0 : next_distance;
  return result;
}

std::vector<Point> HeadPoints(const std::vector<Point>& points,
                              const GonzalezResult& result) {
  std::vector<Point> heads;
  heads.reserve(result.head_indices.size());
  for (int idx : result.head_indices) heads.push_back(points[idx]);
  return heads;
}

}  // namespace fkc
