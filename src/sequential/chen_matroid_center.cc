#include "sequential/chen_matroid_center.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "matching/capacitated_matching.h"
#include "matroid/matroid_intersection.h"
#include "matroid/partition_matroid.h"

namespace fkc {
namespace {

// Greedy maximal 2r-separated subset; every point is within 2r of the result.
std::vector<int> GreedyHeads(const Metric& metric,
                             const std::vector<Point>& points, double r) {
  std::vector<int> heads;
  for (size_t i = 0; i < points.size(); ++i) {
    bool covered = false;
    for (int h : heads) {
      if (metric.Distance(points[i], points[h]) <= 2.0 * r) {
        covered = true;
        break;
      }
    }
    if (!covered) heads.push_back(static_cast<int>(i));
  }
  return heads;
}

// View of `inner` restricted to a subset of its ground set; local element i
// corresponds to global element global_ids[i].
class SubsetMatroidView final : public Matroid {
 public:
  SubsetMatroidView(const Matroid& inner, std::vector<int> global_ids)
      : inner_(inner), global_ids_(std::move(global_ids)) {}

  int GroundSize() const override {
    return static_cast<int>(global_ids_.size());
  }
  bool IsIndependent(const std::vector<int>& elements) const override {
    std::vector<int> globals;
    globals.reserve(elements.size());
    for (int e : elements) globals.push_back(global_ids_[e]);
    return inner_.IsIndependent(globals);
  }
  int Rank() const override { return inner_.Rank(); }
  std::string Name() const override { return "subset(" + inner_.Name() + ")"; }

 private:
  const Matroid& inner_;
  std::vector<int> global_ids_;
};

// Partition matroid with one unit-capacity part per ball.
class BallPartitionMatroid final : public Matroid {
 public:
  BallPartitionMatroid(std::vector<int> ball_of_element, int ball_count)
      : ball_of_element_(std::move(ball_of_element)),
        ball_count_(ball_count) {}

  int GroundSize() const override {
    return static_cast<int>(ball_of_element_.size());
  }
  bool IsIndependent(const std::vector<int>& elements) const override {
    std::vector<bool> used(ball_count_, false);
    for (int e : elements) {
      const int ball = ball_of_element_[e];
      if (used[ball]) return false;
      used[ball] = true;
    }
    return true;
  }
  int Rank() const override { return ball_count_; }
  std::string Name() const override { return "ball-partition"; }

 private:
  std::vector<int> ball_of_element_;
  int ball_count_;
};

// Tests one radius with the generic matroid-intersection machinery. On
// success fills `centers` with one independent pick per ball.
bool TryRadiusGeneric(const Metric& metric, const std::vector<Point>& points,
                      const Matroid& matroid, double r,
                      std::vector<Point>* centers) {
  const std::vector<int> heads = GreedyHeads(metric, points, r);
  if (static_cast<int>(heads.size()) > matroid.Rank()) return false;

  // Eligible elements: points inside some head's r-ball (balls are disjoint
  // because heads are > 2r apart).
  std::vector<int> global_ids;
  std::vector<int> ball_of_element;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t h = 0; h < heads.size(); ++h) {
      if (metric.Distance(points[i], points[heads[h]]) <= r) {
        global_ids.push_back(static_cast<int>(i));
        ball_of_element.push_back(static_cast<int>(h));
        break;
      }
    }
  }

  const SubsetMatroidView restricted(matroid, global_ids);
  const BallPartitionMatroid by_ball(ball_of_element,
                                     static_cast<int>(heads.size()));
  const std::vector<int> common = MaxCommonIndependentSet(restricted, by_ball);
  if (common.size() != heads.size()) return false;

  centers->clear();
  for (int local : common) centers->push_back(points[global_ids[local]]);
  return true;
}

// Partition-matroid fast path: head <-> color capacitated matching.
bool TryRadiusFair(const Metric& metric, const std::vector<Point>& points,
                   const ColorConstraint& constraint, double r,
                   std::vector<Point>* centers) {
  const std::vector<int> heads = GreedyHeads(metric, points, r);
  if (static_cast<int>(heads.size()) > constraint.TotalK()) return false;

  // For each head and color, the nearest in-ball point of that color.
  const int ell = constraint.ell();
  std::vector<std::vector<double>> best_distance(
      heads.size(), std::vector<double>(ell, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<int>> best_index(heads.size(),
                                           std::vector<int>(ell, -1));
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t h = 0; h < heads.size(); ++h) {
      const double d = metric.Distance(points[i], points[heads[h]]);
      if (d <= r && d < best_distance[h][points[i].color]) {
        best_distance[h][points[i].color] = d;
        best_index[h][points[i].color] = static_cast<int>(i);
        break;  // balls are disjoint: no other head can claim this point
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
  if (!matching.Saturates(static_cast<int>(heads.size()))) return false;

  centers->clear();
  for (size_t h = 0; h < heads.size(); ++h) {
    centers->push_back(points[best_index[h][matching.assigned_color[h]]]);
  }
  return true;
}

// Builds the sorted candidate radius list. Exact: every pairwise distance
// (plus zero). Ladder: geometric progression bracketing [d_lo, diameter].
std::vector<double> CandidateRadii(const Metric& metric,
                                   const std::vector<Point>& points,
                                   const ChenOptions& options) {
  const int n = static_cast<int>(points.size());
  std::vector<double> candidates = {0.0};
  if (n <= options.exact_candidate_limit) {
    candidates.reserve(static_cast<size_t>(n) * (n - 1) / 2 + 1);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        candidates.push_back(metric.Distance(points[i], points[j]));
      }
    }
  } else {
    // Bracket: diameter <= 2 * max distance from an arbitrary anchor; the
    // smallest useful radius is the smallest non-zero anchor distance.
    double max_anchor = 0.0;
    double min_anchor = std::numeric_limits<double>::infinity();
    for (int i = 1; i < n; ++i) {
      const double d = metric.Distance(points[0], points[i]);
      max_anchor = std::max(max_anchor, d);
      if (d > 0.0) min_anchor = std::min(min_anchor, d);
    }
    if (max_anchor == 0.0) return candidates;  // all points coincide
    if (!std::isfinite(min_anchor)) min_anchor = max_anchor;
    double r = min_anchor / 4.0;
    const double top = 2.0 * max_anchor;
    while (r < top) {
      candidates.push_back(r);
      r *= options.ladder_factor;
    }
    candidates.push_back(top);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

// Shared binary-search driver. `try_radius(r, centers)` reports feasibility.
template <typename TryFn>
Result<FairCenterSolution> SearchRadius(const Metric& metric,
                                        const std::vector<Point>& points,
                                        const std::vector<double>& candidates,
                                        TryFn try_radius) {
  std::vector<Point> centers;
  if (!try_radius(candidates.back(), &centers)) {
    return Status::Infeasible("no independent center set covers the input");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;  // known feasible
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    std::vector<Point> attempt;
    if (try_radius(candidates[mid], &attempt)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<Point> final_centers;
  FKC_CHECK(try_radius(candidates[lo], &final_centers));
  FairCenterSolution solution;
  solution.centers = std::move(final_centers);
  solution.radius = ClusteringRadius(metric, points, solution.centers);
  return solution;
}

}  // namespace

Result<FairCenterSolution> SolveMatroidCenter(const Metric& metric,
                                              const std::vector<Point>& points,
                                              const Matroid& matroid,
                                              const ChenOptions& options) {
  if (points.empty()) return FairCenterSolution{};
  FKC_CHECK_EQ(matroid.GroundSize(), static_cast<int>(points.size()));
  const std::vector<double> candidates =
      CandidateRadii(metric, points, options);
  return SearchRadius(metric, points, candidates,
                      [&](double r, std::vector<Point>* centers) {
                        return TryRadiusGeneric(metric, points, matroid, r,
                                                centers);
                      });
}

Result<FairCenterSolution> ChenMatroidCenter::Solve(
    const Metric& metric, const std::vector<Point>& points,
    const ColorConstraint& constraint) const {
  if (points.empty()) return FairCenterSolution{};
  for (const Point& p : points) {
    if (p.color < 0 || p.color >= constraint.ell()) {
      return Status::InvalidArgument("point color out of range: " +
                                     p.ToString());
    }
  }
  if (constraint.TotalK() <= 0) {
    return Status::Infeasible("all color caps are zero");
  }
  const std::vector<double> candidates =
      CandidateRadii(metric, points, options_);
  return SearchRadius(metric, points, candidates,
                      [&](double r, std::vector<Point>* centers) {
                        return TryRadiusFair(metric, points, constraint, r,
                                             centers);
                      });
}

}  // namespace fkc
