// Tests for the sequential fair-center solvers (Jones, ChenEtAl, brute
// force): feasibility, approximation guarantees against exact optima,
// matroid-generic behaviour, edge cases, and bit-identity of the SoA solve
// against the per-pair distance loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/random.h"
#include "matching/capacitated_matching.h"
#include "matroid/uniform_matroid.h"
#include "metric/coordinate_pool.h"
#include "metric/metric.h"
#include "metric/simd_kernels.h"
#include "sequential/brute_force.h"
#include "sequential/chen_matroid_center.h"
#include "sequential/gonzalez.h"
#include "sequential/jones_fair_center.h"
#include "sequential/radius.h"

namespace fkc {
namespace {

const EuclideanMetric kMetric;

Point P(std::initializer_list<double> coords, int color) {
  return Point(Coordinates(coords), color);
}

std::vector<Point> RandomColored(int n, int dim, int ell, uint64_t seed,
                                 double side = 100.0) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    Coordinates coords(dim);
    for (double& x : coords) x = rng.NextUniform(0, side);
    points.emplace_back(std::move(coords),
                        static_cast<int>(rng.NextBounded(ell)));
  }
  return points;
}

TEST(RadiusTest, EmptyWindowAndEmptyCenters) {
  EXPECT_EQ(ClusteringRadius(kMetric, {}, {}), 0.0);
  EXPECT_TRUE(std::isinf(ClusteringRadius(kMetric, {P({0}, 0)}, {})));
}

TEST(RadiusTest, KnownRadiusAndAssignment) {
  const std::vector<Point> window = {P({0}, 0), P({4}, 0), P({10}, 0)};
  const std::vector<Point> centers = {P({0}, 0), P({10}, 0)};
  EXPECT_DOUBLE_EQ(ClusteringRadius(kMetric, window, centers), 4.0);
  EXPECT_EQ(AssignToCenters(kMetric, window, centers),
            (std::vector<int>{0, 0, 1}));
}

TEST(BruteForceTest, FindsExactOptimum) {
  // Two tight pairs; with one center per color the best radius is forced.
  const std::vector<Point> points = {P({0}, 0), P({1}, 1), P({10}, 0),
                                     P({11}, 1)};
  auto result = BruteForceFairCenter(kMetric, points, ColorConstraint({1, 1}));
  ASSERT_TRUE(result.ok());
  // One center near each pair, e.g. {0 (c0), 11 (c1)} -> radius 1.
  EXPECT_DOUBLE_EQ(result.value().radius, 1.0);
}

TEST(BruteForceTest, InfeasibleWhenAllCapsZero) {
  const std::vector<Point> points = {P({0}, 0)};
  auto result = BruteForceFairCenter(kMetric, points, ColorConstraint({0}));
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(BruteForceTest, EmptyInputGivesEmptySolution) {
  auto result = BruteForceFairCenter(kMetric, {}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(BruteForceTest, KCenterMatchesSingleColorFair) {
  const auto points = RandomColored(10, 2, 3, 5);
  auto unconstrained = BruteForceKCenter(kMetric, points, 3);
  std::vector<Point> monochrome = points;
  for (Point& p : monochrome) p.color = 0;
  auto fair = BruteForceFairCenter(kMetric, monochrome, ColorConstraint({3}));
  ASSERT_TRUE(unconstrained.ok());
  ASSERT_TRUE(fair.ok());
  EXPECT_DOUBLE_EQ(unconstrained.value().radius, fair.value().radius);
}

// ---------------------------------------------------------------------------
// Per-solver behaviour.

TEST(JonesTest, EmptyInput) {
  const JonesFairCenter solver;
  auto result = solver.Solve(kMetric, {}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(JonesTest, RejectsOutOfRangeColors) {
  const JonesFairCenter solver;
  auto result = solver.Solve(kMetric, {P({0}, 5)}, ColorConstraint({1}));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(JonesTest, InfeasibleWithZeroCaps) {
  const JonesFairCenter solver;
  auto result =
      solver.Solve(kMetric, {P({0}, 0)}, ColorConstraint({0, 0}));
  EXPECT_EQ(result.status().code(), StatusCode::kInfeasible);
}

TEST(JonesTest, ColorCapForcesCrossColorCenter) {
  // Cluster A is all color 0, cluster B all color 1, caps {0 -> forbidden}:
  // wait, caps must stay >= 0; use cap {1,1} with two clusters of one color
  // each; then use cap {2,0}: color 1 cannot serve, so cluster B must be
  // covered from afar by a color-0 center.
  const std::vector<Point> points = {P({0}, 0), P({1}, 0), P({100}, 1),
                                     P({101}, 1)};
  const JonesFairCenter solver;
  auto capped = solver.Solve(kMetric, points, ColorConstraint({2, 0}));
  ASSERT_TRUE(capped.ok());
  for (const Point& c : capped.value().centers) EXPECT_EQ(c.color, 0);
  EXPECT_GE(capped.value().radius, 99.0);

  auto free = solver.Solve(kMetric, points, ColorConstraint({1, 1}));
  ASSERT_TRUE(free.ok());
  EXPECT_LE(free.value().radius, 1.0 + 1e-9);
}

TEST(JonesTest, SolutionsAlwaysFeasible) {
  const JonesFairCenter solver;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto points = RandomColored(60, 3, 4, seed);
    const ColorConstraint constraint({2, 1, 1, 2});
    auto result = solver.Solve(kMetric, points, constraint);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
    EXPECT_TRUE(std::isfinite(result.value().radius));
  }
}

TEST(ChenTest, EmptyInput) {
  const ChenMatroidCenter solver;
  auto result = solver.Solve(kMetric, {}, ColorConstraint({1}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().centers.empty());
}

TEST(ChenTest, SolutionsAlwaysFeasible) {
  const ChenMatroidCenter solver;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const auto points = RandomColored(40, 2, 3, seed);
    const ColorConstraint constraint({2, 2, 1});
    auto result = solver.Solve(kMetric, points, constraint);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(constraint.IsFeasible(result.value().centers));
  }
}

TEST(ChenTest, GenericMatroidUniformEqualsKCenter) {
  // Matroid center under a uniform matroid is plain k-center: the 3-approx
  // must hold against the exact optimum.
  const auto points = RandomColored(12, 2, 1, 3);
  const UniformMatroid matroid(3, static_cast<int>(points.size()));
  auto chen = SolveMatroidCenter(kMetric, points, matroid);
  auto exact = BruteForceKCenter(kMetric, points, 3);
  ASSERT_TRUE(chen.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(chen.value().radius, 3.0 * exact.value().radius + 1e-9);
}

TEST(ChenTest, LadderModeStaysClose) {
  // Force the geometric-ladder candidate mode and compare to exact mode.
  const auto points = RandomColored(50, 2, 2, 13);
  const ColorConstraint constraint({2, 2});
  ChenOptions exact_options;
  ChenOptions ladder_options;
  ladder_options.exact_candidate_limit = 10;  // force ladder
  ladder_options.ladder_factor = 1.05;
  const ChenMatroidCenter exact_solver(exact_options);
  const ChenMatroidCenter ladder_solver(ladder_options);
  auto exact = exact_solver.Solve(kMetric, points, constraint);
  auto ladder = ladder_solver.Solve(kMetric, points, constraint);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(ladder.ok());
  EXPECT_LE(ladder.value().radius,
            1.2 * exact.value().radius + 1e-9);
}

// ---------------------------------------------------------------------------
// Approximation-guarantee property sweep: every 3-approx solver within
// 3 * OPT (+ tolerance) of the brute-force optimum on random instances.

struct ApproxCase {
  uint64_t seed;
  int n;
  int ell;
  std::vector<int> caps;
};

class SolverApproximationTest : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(SolverApproximationTest, JonesWithinThreeTimesOpt) {
  const ApproxCase& c = GetParam();
  const auto points = RandomColored(c.n, 2, c.ell, c.seed);
  const ColorConstraint constraint(c.caps);
  auto exact = BruteForceFairCenter(kMetric, points, constraint);
  ASSERT_TRUE(exact.ok());
  const JonesFairCenter jones;
  auto approx = jones.Solve(kMetric, points, constraint);
  ASSERT_TRUE(approx.ok());
  EXPECT_LE(approx.value().radius, 3.0 * exact.value().radius + 1e-9)
      << "seed=" << c.seed;
}

TEST_P(SolverApproximationTest, ChenWithinThreeTimesOpt) {
  const ApproxCase& c = GetParam();
  const auto points = RandomColored(c.n, 2, c.ell, c.seed);
  const ColorConstraint constraint(c.caps);
  auto exact = BruteForceFairCenter(kMetric, points, constraint);
  ASSERT_TRUE(exact.ok());
  const ChenMatroidCenter chen;
  auto approx = chen.Solve(kMetric, points, constraint);
  ASSERT_TRUE(approx.ok());
  EXPECT_LE(approx.value().radius, 3.0 * exact.value().radius + 1e-9)
      << "seed=" << c.seed;
}

std::vector<ApproxCase> ApproxCases() {
  std::vector<ApproxCase> cases;
  uint64_t seed = 1;
  for (int rep = 0; rep < 6; ++rep) {
    cases.push_back({seed++, 12, 2, {1, 1}});
    cases.push_back({seed++, 14, 2, {2, 1}});
    cases.push_back({seed++, 12, 3, {1, 1, 1}});
    cases.push_back({seed++, 10, 4, {1, 1, 1, 1}});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverApproximationTest,
                         ::testing::ValuesIn(ApproxCases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed);
                         });

// Sanity: on instances where fairness is non-binding, fair solvers should
// not be much worse than unconstrained Gonzalez (they solve a harder
// problem, but OPT coincides when colors are abundant).
TEST(SolverComparisonTest, FairMatchesUnconstrainedWhenColorsAbundant) {
  const auto base = RandomColored(40, 2, 1, 21);
  // Duplicate each location in both colors so any center position is
  // available in any color: fair OPT == unconstrained OPT.
  std::vector<Point> points;
  for (const Point& p : base) {
    points.push_back(p);
    Point q = p;
    q.color = 1;
    points.push_back(q);
  }
  const JonesFairCenter jones;
  auto fair = jones.Solve(kMetric, points, ColorConstraint({2, 2}));
  ASSERT_TRUE(fair.ok());
  const auto greedy = GonzalezKCenter(kMetric, points, 4);
  // Both are <= 2*OPT-ish; fair must stay within 3x of the greedy radius
  // up to its own guarantee.
  EXPECT_LE(fair.value().radius, 3.0 * greedy.coverage_radius + 1e-9);
}

// --- Bit-identity pin: the SoA solve against the per-pair loops. ---
//
// Gonzalez, the Jones color table and the clustering radius run on
// DistanceSoA rows over one CoordinatePool per solve. The reference copies
// below are the per-pair Metric::Distance loops those paths replace; every
// head, insertion distance, coverage radius, chosen center and solution
// radius must equal them bit for bit, under every compiled kernel set.

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

GonzalezResult ReferenceGonzalez(const Metric& metric,
                                 const std::vector<Point>& points, int k,
                                 int first_index) {
  GonzalezResult result;
  if (points.empty() || k <= 0) return result;
  const int n = static_cast<int>(points.size());
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  int next_head = first_index;
  double next_distance = std::numeric_limits<double>::infinity();
  for (int j = 0; j < std::min(k, n); ++j) {
    result.head_indices.push_back(next_head);
    result.insertion_distances.push_back(next_distance);
    const Point& head = points[next_head];
    next_distance = 0.0;
    next_head = -1;
    for (int i = 0; i < n; ++i) {
      const double d = metric.Distance(points[i], head);
      if (d < nearest[i]) nearest[i] = d;
      if (nearest[i] > next_distance) {
        next_distance = nearest[i];
        next_head = i;
      }
    }
    if (next_head == -1) {
      next_distance = 0.0;
      break;
    }
  }
  result.coverage_radius = next_distance;
  return result;
}

double ReferenceRadius(const Metric& metric, const std::vector<Point>& window,
                       const std::vector<Point>& centers) {
  if (window.empty()) return 0.0;
  if (centers.empty()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (const Point& p : window) {
    const double d = DistanceToSet(metric, p, centers);
    if (d > worst) worst = d;
  }
  return worst;
}

// The Jones solve with a per-pair color table, per-probe center copies and
// a final re-solve at the smallest feasible radius. Inputs are valid (colors
// in range, k > 0).
Result<FairCenterSolution> ReferenceJones(const Metric& metric,
                                          const std::vector<Point>& points,
                                          const ColorConstraint& constraint) {
  const int ell = constraint.ell();
  const GonzalezResult gonzalez =
      ReferenceGonzalez(metric, points, constraint.TotalK(), 0);
  const size_t heads = gonzalez.head_indices.size();
  std::vector<std::vector<double>> nearest(
      heads, std::vector<double>(ell, std::numeric_limits<double>::infinity()));
  std::vector<std::vector<int>> nearest_index(heads, std::vector<int>(ell, -1));
  for (size_t h = 0; h < heads; ++h) {
    const Point& head = points[gonzalez.head_indices[h]];
    for (size_t i = 0; i < points.size(); ++i) {
      const int c = points[i].color;
      const double d = metric.Distance(head, points[i]);
      if (d < nearest[h][c]) {
        nearest[h][c] = d;
        nearest_index[h][c] = static_cast<int>(i);
      }
    }
  }
  auto try_radius = [&](double rho, std::vector<Point>* centers) {
    size_t prefix = 0;
    while (prefix < heads &&
           gonzalez.insertion_distances[prefix] > 2.0 * rho) {
      ++prefix;
    }
    std::vector<uint8_t> allowed(prefix * ell);
    for (size_t h = 0; h < prefix; ++h) {
      for (int c = 0; c < ell; ++c) {
        allowed[h * ell + c] = constraint.cap(c) > 0 && nearest[h][c] <= rho;
      }
    }
    CapacitatedMatcher matcher(constraint);
    const CapacitatedMatchingResult matching =
        matcher.Match(static_cast<int>(prefix), allowed);
    if (!matching.Saturates(static_cast<int>(prefix))) return false;
    centers->clear();
    for (size_t h = 0; h < prefix; ++h) {
      centers->push_back(
          points[nearest_index[h][matching.assigned_color[h]]]);
    }
    return true;
  };

  std::vector<double> candidates = {0.0};
  for (const auto& row : nearest) {
    for (double d : row) {
      if (std::isfinite(d)) candidates.push_back(d);
    }
  }
  for (double delta : gonzalez.insertion_distances) {
    if (std::isfinite(delta)) candidates.push_back(delta / 2.0);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<Point> centers;
  if (!try_radius(candidates.back(), &centers)) {
    return Status::Infeasible("reference: no feasible radius");
  }
  size_t lo = 0;
  size_t hi = candidates.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    std::vector<Point> attempt;
    if (try_radius(candidates[mid], &attempt)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  FairCenterSolution solution;
  EXPECT_TRUE(try_radius(candidates[lo], &solution.centers));
  solution.radius = ReferenceRadius(metric, points, solution.centers);
  return solution;
}

// A built-in metric whose DistanceSoA runs one named kernel set instead of
// the runtime dispatch, so every compiled width is exercised in one process.
class PinnedKernelMetric final : public Metric {
 public:
  PinnedKernelMetric(const Metric* per_pair, simd::DistanceKernel kernel,
                     std::string name)
      : per_pair_(per_pair), kernel_(kernel), name_(std::move(name)) {}

  double Distance(const Point& a, const Point& b) const override {
    return per_pair_->Distance(a, b);
  }
  void DistanceSoA(const Point& p, const CoordinatePool& pool,
                   double* out) const override {
    if (pool.empty()) return;
    kernel_(p.coords.data(), pool.Row(0), pool.stride(), pool.dim(),
            pool.size(), out);
  }
  std::string Name() const override { return name_; }

 private:
  const Metric* per_pair_;
  simd::DistanceKernel kernel_;
  std::string name_;
};

// A coordinate-only custom metric (weighted L1, exactly symmetric) that
// keeps the base-class DistanceSoA gather fallback.
class WeightedManhattan final : public Metric {
 public:
  double Distance(const Point& a, const Point& b) const override {
    double sum = 0.0;
    for (size_t d = 0; d < a.coords.size(); ++d) {
      sum += static_cast<double>(d + 1) * std::fabs(a.coords[d] - b.coords[d]);
    }
    return sum;
  }
  std::string Name() const override { return "weighted-l1"; }
};

// Every metric under test: each built-in metric pinned to each kernel set
// the CPU runs, the dispatched built-ins, and the fallback custom metric.
std::vector<std::unique_ptr<Metric>> MetricsUnderTest() {
  static const EuclideanMetric euclidean;
  static const ManhattanMetric manhattan;
  static const ChebyshevMetric chebyshev;
  std::vector<std::unique_ptr<Metric>> metrics;
  for (const simd::KernelSet* set : simd::CompiledKernelSets()) {
    if (!simd::CpuSupports(*set)) continue;
    const std::string width = set->name;
    metrics.push_back(std::make_unique<PinnedKernelMetric>(
        &euclidean, set->euclidean, "euclidean/" + width));
    metrics.push_back(std::make_unique<PinnedKernelMetric>(
        &manhattan, set->manhattan, "manhattan/" + width));
    metrics.push_back(std::make_unique<PinnedKernelMetric>(
        &chebyshev, set->chebyshev, "chebyshev/" + width));
  }
  metrics.push_back(std::make_unique<EuclideanMetric>());
  metrics.push_back(std::make_unique<ManhattanMetric>());
  metrics.push_back(std::make_unique<ChebyshevMetric>());
  metrics.push_back(std::make_unique<WeightedManhattan>());
  return metrics;
}

// Points with unique ids. `grid` snaps coordinates to a small integer grid,
// which forces distance ties and duplicate points (tie-breaks, early
// Gonzalez stop).
std::vector<Point> PinPoints(int n, int dim, int ell, bool grid, Rng* rng) {
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    Coordinates coords(dim);
    for (double& x : coords) {
      x = grid ? static_cast<double>(rng->NextBounded(4))
               : rng->NextUniform(-50, 50);
    }
    points.emplace_back(std::move(coords),
                        static_cast<int>(rng->NextBounded(ell)),
                        /*t=*/-1, static_cast<uint64_t>(i));
  }
  return points;
}

void ExpectSameGonzalez(const GonzalezResult& want, const GonzalezResult& got,
                        const std::string& where) {
  EXPECT_EQ(want.head_indices, got.head_indices) << where;
  ASSERT_EQ(want.insertion_distances.size(), got.insertion_distances.size())
      << where;
  for (size_t j = 0; j < want.insertion_distances.size(); ++j) {
    EXPECT_EQ(Bits(want.insertion_distances[j]),
              Bits(got.insertion_distances[j]))
        << where << " head " << j;
  }
  EXPECT_EQ(Bits(want.coverage_radius), Bits(got.coverage_radius)) << where;
}

TEST(SoASolveBitIdentityTest, MatchesPerPairLoopsUnderEveryKernelSet) {
  const std::vector<std::unique_ptr<Metric>> metrics = MetricsUnderTest();
  const std::vector<ColorConstraint> constraints = {
      ColorConstraint({2, 1, 3}), ColorConstraint({0, 4, 1}),
      ColorConstraint({1, 1, 1})};
  int cases = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    for (int n : {1, 2, 9, 40, 105}) {
      for (int dim : {1, 3, 7}) {
        const bool grid = (seed % 2) == 0;
        const std::vector<Point> points = PinPoints(n, dim, 3, grid, &rng);
        const CoordinatePool pool(points);
        const ColorConstraint& constraint =
            constraints[seed % constraints.size()];
        for (const auto& metric : metrics) {
          const std::string where = metric->Name() + " seed=" +
                                    std::to_string(seed) + " n=" +
                                    std::to_string(n) + " dim=" +
                                    std::to_string(dim);
          ++cases;

          // Gonzalez, through both overloads, plus the kept head rows.
          const int k = constraint.TotalK();
          const int first = n / 2;
          ExpectSameGonzalez(ReferenceGonzalez(*metric, points, k, first),
                             GonzalezKCenter(*metric, points, k, first),
                             where);
          std::vector<double> rows;
          const GonzalezResult greedy =
              GonzalezKCenter(*metric, points, pool, k, 0, &rows);
          ExpectSameGonzalez(ReferenceGonzalez(*metric, points, k, 0), greedy,
                             where);
          ASSERT_EQ(rows.size(), greedy.head_indices.size() * points.size())
              << where;
          for (size_t h = 0; h < greedy.head_indices.size(); ++h) {
            const Point& head = points[greedy.head_indices[h]];
            for (size_t i = 0; i < points.size(); ++i) {
              ASSERT_EQ(Bits(metric->Distance(points[i], head)),
                        Bits(rows[h * points.size() + i]))
                  << where << " row " << h << " col " << i;
            }
          }

          // Clustering radius over the heads and over a sparse subset.
          const std::vector<Point> heads = HeadPoints(points, greedy);
          std::vector<Point> sparse;
          for (size_t i = 0; i < points.size(); i += 3) {
            sparse.push_back(points[i]);
          }
          const std::vector<Point>* center_sets[] = {&heads, &sparse};
          for (const std::vector<Point>* centers : center_sets) {
            const double want = ReferenceRadius(*metric, points, *centers);
            EXPECT_EQ(Bits(want),
                      Bits(ClusteringRadius(*metric, points, *centers)))
                << where;
            EXPECT_EQ(Bits(want),
                      Bits(ClusteringRadiusSoA(*metric, pool, *centers)))
                << where;
          }

          // The full Jones solve: status, center ids and colors, radius.
          const auto want = ReferenceJones(*metric, points, constraint);
          const auto got = JonesFairCenter().Solve(*metric, points, constraint);
          ASSERT_EQ(want.ok(), got.ok()) << where;
          if (!want.ok()) {
            EXPECT_EQ(want.status().code(), got.status().code()) << where;
            continue;
          }
          const auto& want_centers = want.value().centers;
          const auto& got_centers = got.value().centers;
          ASSERT_EQ(want_centers.size(), got_centers.size()) << where;
          for (size_t c = 0; c < want_centers.size(); ++c) {
            EXPECT_EQ(want_centers[c].id, got_centers[c].id) << where;
            EXPECT_EQ(want_centers[c].color, got_centers[c].color) << where;
          }
          EXPECT_EQ(Bits(want.value().radius), Bits(got.value().radius))
              << where;
        }
      }
    }
  }
  EXPECT_GT(cases, 0);
}

}  // namespace
}  // namespace fkc
