// Gonzalez's greedy 2-approximation for unconstrained k-center [23]. Beyond
// being a baseline, it is the head-selection engine inside the Jones fair
// solver and the k-median seeding.
#ifndef FKC_SEQUENTIAL_GONZALEZ_H_
#define FKC_SEQUENTIAL_GONZALEZ_H_

#include <vector>

#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/point.h"

namespace fkc {

/// Output of the greedy farthest-point traversal.
struct GonzalezResult {
  /// Indices of the selected heads, in selection order.
  std::vector<int> head_indices;
  /// insertion_distances[j] = distance of head j from heads 0..j-1 at the
  /// moment of selection; +inf for the first head. Non-increasing.
  std::vector<double> insertion_distances;
  /// Coverage radius: max over all points of the distance to the full head
  /// set. Classic guarantee: at most 2x the optimal k-center radius.
  double coverage_radius = 0.0;
};

/// Runs the farthest-point greedy starting from `first_index`, selecting
/// min(k, n) heads. O(n * k) distance evaluations. Builds a CoordinatePool
/// of `points` and delegates to the pool overload.
GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points, int k,
                               int first_index = 0);

/// The same traversal over `pool`, which must hold `points` in order (dense
/// position i == points[i]). Each selected head costs one DistanceSoA row,
/// d(head, points[i]) for every i; the result equals the per-pair
/// d(points[i], head) loop bit for bit because the kernels reproduce
/// Distance exactly and the metric is symmetric. When `head_rows` is
/// non-null it receives those rows: row j (head j) at [j * n, (j + 1) * n).
GonzalezResult GonzalezKCenter(const Metric& metric,
                               const std::vector<Point>& points,
                               const CoordinatePool& pool, int k,
                               int first_index = 0,
                               std::vector<double>* head_rows = nullptr);

/// Convenience: materializes the head points of a GonzalezResult.
std::vector<Point> HeadPoints(const std::vector<Point>& points,
                              const GonzalezResult& result);

}  // namespace fkc

#endif  // FKC_SEQUENTIAL_GONZALEZ_H_
