#include "sequential/robust_fair_center.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "matching/capacitated_matching.h"
#include "sequential/radius.h"

namespace fkc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One guess of the bicriteria scheme. On acceptance fills the solution
// (centers, outliers) and returns true.
bool TryRobustRadius(const Metric& metric, const std::vector<Point>& points,
                     const ColorConstraint& constraint, int num_outliers,
                     double r, RobustFairCenterSolution* solution) {
  const int n = static_cast<int>(points.size());
  const int k = constraint.TotalK();

  // Greedy head selection among uncovered points: each round takes the
  // uncovered point whose r-ball covers the most uncovered points, then
  // marks its 3r-ball covered. Heads end up pairwise > 3r apart, so their
  // r-balls are disjoint and matched centers are distinct.
  std::vector<bool> covered(n, false);
  std::vector<int> heads;
  for (int round = 0; round < k; ++round) {
    int best_head = -1;
    int best_gain = 0;
    for (int u = 0; u < n; ++u) {
      if (covered[u]) continue;
      int gain = 0;
      for (int v = 0; v < n; ++v) {
        if (!covered[v] && metric.Distance(points[u], points[v]) <= r) {
          ++gain;
        }
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_head = u;
      }
    }
    if (best_head == -1) break;  // everything covered
    heads.push_back(best_head);
    for (int v = 0; v < n; ++v) {
      if (!covered[v] &&
          metric.Distance(points[best_head], points[v]) <= 3.0 * r) {
        covered[v] = true;
      }
    }
  }

  // Match heads to color slots using the r-balls around heads.
  const int ell = constraint.ell();
  std::vector<std::vector<double>> best_distance(
      heads.size(), std::vector<double>(ell, kInf));
  std::vector<std::vector<int>> best_index(heads.size(),
                                           std::vector<int>(ell, -1));
  for (int i = 0; i < n; ++i) {
    for (size_t h = 0; h < heads.size(); ++h) {
      const double d = metric.Distance(points[i], points[heads[h]]);
      if (d <= r && d < best_distance[h][points[i].color]) {
        best_distance[h][points[i].color] = d;
        best_index[h][points[i].color] = i;
      }
    }
  }
  std::vector<uint8_t> allowed(heads.size() * ell);
  for (size_t h = 0; h < heads.size(); ++h) {
    for (int c = 0; c < ell; ++c) {
      allowed[h * ell + c] = best_index[h][c] != -1;
    }
  }
  CapacitatedMatcher matcher(constraint);
  const CapacitatedMatchingResult& matching =
      matcher.Match(static_cast<int>(heads.size()), allowed);

  // Unmatched heads are dropped; their points fall into the outlier budget.
  std::vector<Point> centers;
  for (size_t h = 0; h < heads.size(); ++h) {
    const int color = matching.assigned_color[h];
    if (color != -1) centers.push_back(points[best_index[h][color]]);
  }
  if (centers.empty()) return false;

  // Coverage at 4r: head's 3r-ball shifted by the head-to-center distance r.
  std::vector<int> outliers;
  for (int i = 0; i < n; ++i) {
    if (DistanceToSet(metric, points[i], centers) > 4.0 * r) {
      outliers.push_back(i);
      if (static_cast<int>(outliers.size()) > num_outliers) return false;
    }
  }

  solution->centers = std::move(centers);
  solution->outlier_indices = std::move(outliers);
  // Exact covering radius of the retained points.
  double radius = 0.0;
  size_t next_outlier = 0;
  for (int i = 0; i < n; ++i) {
    if (next_outlier < solution->outlier_indices.size() &&
        solution->outlier_indices[next_outlier] == i) {
      ++next_outlier;
      continue;
    }
    radius = std::max(radius,
                      DistanceToSet(metric, points[i], solution->centers));
  }
  solution->radius = radius;
  return true;
}

}  // namespace

Result<RobustFairCenterSolution> SolveRobustFairCenter(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint, int num_outliers) {
  if (num_outliers < 0) {
    return Status::InvalidArgument("negative outlier budget");
  }
  if (points.empty()) return RobustFairCenterSolution{};
  for (const Point& p : points) {
    if (p.color < 0 || p.color >= constraint.ell()) {
      return Status::InvalidArgument("point color out of range: " +
                                     p.ToString());
    }
  }
  if (constraint.TotalK() <= 0) {
    return Status::Infeasible("all color caps are zero");
  }
  if (num_outliers >= static_cast<int>(points.size())) {
    // Everything may be discarded; any single feasible center works.
    for (const Point& p : points) {
      if (constraint.cap(p.color) > 0) {
        RobustFairCenterSolution solution;
        solution.centers = {p};
        solution.radius = 0.0;
        for (int i = 0; i < static_cast<int>(points.size()); ++i) {
          if (!SamePoint(points[i], p)) solution.outlier_indices.push_back(i);
        }
        return solution;
      }
    }
    return Status::Infeasible("no point has a usable color");
  }

  // Candidate radii: all pairwise distances (OPT is one of them), plus 0.
  std::vector<double> candidates = {0.0};
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      candidates.push_back(metric.Distance(points[i], points[j]));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  RobustFairCenterSolution best;
  if (!TryRobustRadius(metric, points, constraint, num_outliers,
                       candidates.back(), &best)) {
    return Status::Infeasible("even the diameter guess cannot cover");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    RobustFairCenterSolution attempt;
    if (TryRobustRadius(metric, points, constraint, num_outliers,
                        candidates[mid], &attempt)) {
      best = std::move(attempt);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return best;
}

Result<RobustFairCenterSolution> BruteForceRobustFairCenter(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint, int num_outliers) {
  if (points.empty()) return RobustFairCenterSolution{};
  FKC_CHECK_LE(points.size(), 32u) << "exponential enumeration; tests only";
  if (num_outliers < 0) {
    return Status::InvalidArgument("negative outlier budget");
  }

  // Per-color pools with maximal takes (more centers never hurt coverage).
  const int n = static_cast<int>(points.size());
  std::vector<std::vector<int>> pool(constraint.ell());
  for (int i = 0; i < n; ++i) pool[points[i].color].push_back(i);
  std::vector<int> take(constraint.ell());
  int total = 0;
  for (int c = 0; c < constraint.ell(); ++c) {
    take[c] = std::min<int>(constraint.cap(c),
                            static_cast<int>(pool[c].size()));
    total += take[c];
  }
  if (total == 0) return Status::Infeasible("all usable caps are zero");

  RobustFairCenterSolution best;
  best.radius = kInf;
  std::vector<int> chosen;

  std::function<void(int)> recurse = [&](int color) {
    if (color == constraint.ell()) {
      std::vector<Point> centers;
      for (int idx : chosen) centers.push_back(points[idx]);
      // Radius = (n - z)-th smallest center distance.
      std::vector<std::pair<double, int>> distances;
      distances.reserve(n);
      for (int i = 0; i < n; ++i) {
        distances.push_back({DistanceToSet(metric, points[i], centers), i});
      }
      std::sort(distances.begin(), distances.end());
      const int keep = n - std::min(num_outliers, n);
      const double radius = keep == 0 ? 0.0 : distances[keep - 1].first;
      if (radius < best.radius) {
        best.radius = radius;
        best.centers = std::move(centers);
        best.outlier_indices.clear();
        for (int i = keep; i < n; ++i) {
          best.outlier_indices.push_back(distances[i].second);
        }
        std::sort(best.outlier_indices.begin(), best.outlier_indices.end());
      }
      return;
    }
    if (take[color] == 0) {
      recurse(color + 1);
      return;
    }
    // All size-take[color] combinations of pool[color].
    std::vector<int> combo(take[color]);
    std::function<void(int, int)> combos = [&](int start, int depth) {
      if (depth == take[color]) {
        const size_t before = chosen.size();
        chosen.insert(chosen.end(), combo.begin(), combo.end());
        recurse(color + 1);
        chosen.resize(before);
        return;
      }
      for (size_t i = start;
           i + (take[color] - depth) <= pool[color].size(); ++i) {
        combo[depth] = pool[color][i];
        combos(static_cast<int>(i) + 1, depth + 1);
      }
    };
    combos(0, 0);
  };
  recurse(0);

  FKC_CHECK(std::isfinite(best.radius));
  return best;
}

}  // namespace fkc
