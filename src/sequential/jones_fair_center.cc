#include "sequential/jones_fair_center.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "matching/capacitated_matching.h"
#include "metric/coordinate_pool.h"
#include "sequential/gonzalez.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// For each head, the distance to the nearest point of each color and that
// point's index, read from the Gonzalez head rows (no distance evaluations).
// Entry [h * ell + c].
struct ColorTable {
  int ell = 0;
  std::vector<double> nearest_distance;
  std::vector<int> nearest_index;
};

ColorTable BuildColorTable(const std::vector<Point>& points,
                           const std::vector<double>& head_rows, size_t heads,
                           int ell) {
  ColorTable table;
  table.ell = ell;
  table.nearest_distance.assign(heads * ell, kInf);
  table.nearest_index.assign(heads * ell, -1);
  const size_t n = points.size();
  for (size_t h = 0; h < heads; ++h) {
    const double* row = head_rows.data() + h * n;
    double* nearest = table.nearest_distance.data() + h * ell;
    int* index = table.nearest_index.data() + h * ell;
    for (size_t i = 0; i < n; ++i) {
      const int c = points[i].color;
      if (row[i] < nearest[c]) {
        nearest[c] = row[i];
        index[c] = static_cast<int>(i);
      }
    }
  }
  return table;
}

// Attempts to match the prefix of heads with insertion distance > 2*rho to
// color slots using balls of radius rho. On success fills `colors` with the
// color matched to each prefix head. `allowed` is the reused head x color
// table of the probe.
bool TryRadius(double rho, const GonzalezResult& gonzalez,
               const ColorTable& table, CapacitatedMatcher* matcher,
               std::vector<uint8_t>* allowed, std::vector<int>* colors) {
  // Maximal prefix with delta_j > 2*rho; delta_0 = +inf so the prefix is
  // never empty.
  size_t prefix = 0;
  while (prefix < gonzalez.insertion_distances.size() &&
         gonzalez.insertion_distances[prefix] > 2.0 * rho) {
    ++prefix;
  }

  // Zero-cap colors own no slots, so the matcher never assigns them.
  const size_t cells = prefix * table.ell;
  allowed->resize(cells);
  for (size_t i = 0; i < cells; ++i) {
    (*allowed)[i] = table.nearest_distance[i] <= rho;
  }

  const CapacitatedMatchingResult& matching =
      matcher->Match(static_cast<int>(prefix), *allowed);
  if (!matching.Saturates(static_cast<int>(prefix))) return false;
  colors->assign(matching.assigned_color.begin(),
                 matching.assigned_color.end());
  return true;
}

}  // namespace

Result<FairCenterSolution> JonesFairCenter::Solve(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint) const {
  if (points.empty()) return FairCenterSolution{};
  for (const Point& p : points) {
    if (p.color < 0 || p.color >= constraint.ell()) {
      return Status::InvalidArgument("point color out of range: " +
                                     p.ToString());
    }
  }

  const int k = constraint.TotalK();
  if (k <= 0) return Status::Infeasible("all color caps are zero");

  // One pool per solve: Gonzalez keeps its k head rows, the color table
  // reads them, and the radius takes k more rows over the same pool.
  const CoordinatePool pool(points);
  std::vector<double> head_rows;
  const GonzalezResult gonzalez =
      GonzalezKCenter(metric, points, pool, k, /*first_index=*/0, &head_rows);
  const ColorTable table =
      BuildColorTable(points, head_rows, gonzalez.head_indices.size(),
                      constraint.ell());

  // Candidate radii where feasibility can flip: head-to-color distances and
  // prefix breakpoints delta_j / 2 (and 0, for the degenerate exact case).
  std::vector<double> candidates = {0.0};
  for (double d : table.nearest_distance) {
    if (std::isfinite(d)) candidates.push_back(d);
  }
  for (double delta : gonzalez.insertion_distances) {
    if (std::isfinite(delta)) candidates.push_back(delta / 2.0);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // Feasibility is monotone in rho: binary search for the smallest feasible
  // candidate, keeping the matching of the last feasible probe. That probe
  // is at the final `hi`, so no re-solve is needed. One matcher and one
  // allowed table serve every probe.
  CapacitatedMatcher matcher(constraint);
  std::vector<uint8_t> allowed;
  std::vector<int> colors;
  if (!TryRadius(candidates.back(), gonzalez, table, &matcher, &allowed,
                 &colors)) {
    return Status::Infeasible(
        "no head can be matched to any color with spare capacity");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;  // known feasible
  std::vector<int> attempt;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (TryRadius(candidates[mid], gonzalez, table, &matcher, &allowed,
                  &attempt)) {
      hi = mid;
      colors.swap(attempt);
    } else {
      lo = mid + 1;
    }
  }

  // Each matched head contributes the closest point of its matched color.
  FairCenterSolution solution;
  solution.centers.reserve(colors.size());
  for (size_t h = 0; h < colors.size(); ++h) {
    const int point_index = table.nearest_index[h * table.ell + colors[h]];
    FKC_CHECK_GE(point_index, 0);
    solution.centers.push_back(points[point_index]);
  }
  solution.radius = ClusteringRadiusSoA(metric, pool, solution.centers);
  return solution;
}

}  // namespace fkc
