// Tests for src/matroid: the color constraint, all matroid implementations
// (axioms included), maximal independent sets, and matroid intersection.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "matroid/color_constraint.h"
#include "matroid/matroid.h"
#include "matroid/matroid_intersection.h"
#include "matroid/partition_matroid.h"
#include "matroid/uniform_matroid.h"

namespace fkc {
namespace {

Point P(double x, int color) { return Point({x}, color); }

TEST(ColorConstraintTest, BasicAccessors) {
  const ColorConstraint constraint({2, 0, 3});
  EXPECT_EQ(constraint.ell(), 3);
  EXPECT_EQ(constraint.TotalK(), 5);
  EXPECT_EQ(constraint.cap(0), 2);
  EXPECT_EQ(constraint.cap(1), 0);
}

TEST(ColorConstraintTest, UniformFactory) {
  const ColorConstraint constraint = ColorConstraint::Uniform(7, 3);
  EXPECT_EQ(constraint.ell(), 7);
  EXPECT_EQ(constraint.TotalK(), 21);
}

TEST(ColorConstraintTest, FeasibilityChecksCapsAndRange) {
  const ColorConstraint constraint({1, 2});
  EXPECT_TRUE(constraint.IsFeasible({}));
  EXPECT_TRUE(constraint.IsFeasible({P(0, 0), P(1, 1), P(2, 1)}));
  EXPECT_FALSE(constraint.IsFeasible({P(0, 0), P(1, 0)}));  // cap 0 exceeded
  EXPECT_FALSE(constraint.IsFeasible({P(0, 2)}));           // color range
  EXPECT_FALSE(constraint.IsFeasible({P(0, -1)}));
}

TEST(ColorConstraintTest, ProportionalMatchesFrequencies) {
  // 80 points of color 0, 20 of color 1; total_k = 10 -> caps 8 and 2.
  std::vector<Point> points;
  for (int i = 0; i < 80; ++i) points.push_back(P(i, 0));
  for (int i = 0; i < 20; ++i) points.push_back(P(i, 1));
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 2, 10);
  EXPECT_EQ(constraint.TotalK(), 10);
  EXPECT_EQ(constraint.cap(0), 8);
  EXPECT_EQ(constraint.cap(1), 2);
}

TEST(ColorConstraintTest, ProportionalGuaranteesOccurringColors) {
  // A very rare color still gets one slot when the budget allows.
  std::vector<Point> points;
  for (int i = 0; i < 1000; ++i) points.push_back(P(i, 0));
  points.push_back(P(-1, 1));
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 2, 14);
  EXPECT_EQ(constraint.TotalK(), 14);
  EXPECT_GE(constraint.cap(1), 1);
}

TEST(ColorConstraintTest, ProportionalPaperSetup) {
  // The paper's configuration: sum k_i = 14 over 7 colors, proportional.
  Rng rng(3);
  std::vector<Point> points;
  for (int i = 0; i < 7000; ++i) {
    points.push_back(P(i, static_cast<int>(rng.NextBounded(7))));
  }
  const ColorConstraint constraint =
      ColorConstraint::Proportional(points, 7, 14);
  EXPECT_EQ(constraint.TotalK(), 14);
  // Balanced colors: each gets k_i = 2 >= 2 centers (the paper chose 14 so
  // that balanced proportions allow at least two centers per color).
  for (int c = 0; c < 7; ++c) EXPECT_EQ(constraint.cap(c), 2);
}

TEST(ColorConstraintTest, CountColorsIgnoresOutOfRange) {
  const ColorConstraint constraint({1, 1});
  const auto counts = constraint.CountColors({P(0, 0), P(1, 0), P(2, 7)});
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 0);
}

TEST(UniformMatroidTest, IndependenceBySize) {
  const UniformMatroid matroid(2, 5);
  EXPECT_TRUE(matroid.IsIndependent({}));
  EXPECT_TRUE(matroid.IsIndependent({0, 4}));
  EXPECT_FALSE(matroid.IsIndependent({0, 1, 2}));
  EXPECT_EQ(matroid.Rank(), 2);
  EXPECT_TRUE(matroid.CanAdd({0}, 1));
  EXPECT_FALSE(matroid.CanAdd({0, 1}, 2));
}

TEST(UniformMatroidTest, SatisfiesAxioms) {
  EXPECT_TRUE(CheckMatroidAxioms(UniformMatroid(3, 6)));
  EXPECT_TRUE(CheckMatroidAxioms(UniformMatroid(0, 4)));
  EXPECT_TRUE(CheckMatroidAxioms(UniformMatroid(4, 4)));
}

TEST(PartitionMatroidTest, IndependencePerColor) {
  // Elements 0,1,2 color 0; elements 3,4 color 1; caps {2, 1}.
  const PartitionMatroid matroid({0, 0, 0, 1, 1}, ColorConstraint({2, 1}));
  EXPECT_TRUE(matroid.IsIndependent({0, 1, 3}));
  EXPECT_FALSE(matroid.IsIndependent({0, 1, 2}));
  EXPECT_FALSE(matroid.IsIndependent({3, 4}));
  EXPECT_EQ(matroid.Rank(), 3);
  EXPECT_TRUE(matroid.CanAdd({0}, 1));
  EXPECT_FALSE(matroid.CanAdd({0, 1}, 2));
}

TEST(PartitionMatroidTest, RankSaturatesByAvailability) {
  // Caps allow 5 of color 0 but only 2 elements exist.
  const PartitionMatroid matroid({0, 0, 1}, ColorConstraint({5, 1}));
  EXPECT_EQ(matroid.Rank(), 3);
}

TEST(PartitionMatroidTest, SatisfiesAxioms) {
  EXPECT_TRUE(CheckMatroidAxioms(
      PartitionMatroid({0, 0, 1, 1, 2}, ColorConstraint({1, 2, 1}))));
  EXPECT_TRUE(CheckMatroidAxioms(
      PartitionMatroid({0, 1, 0, 1}, ColorConstraint({2, 2}))));
}

TEST(PartitionMatroidTest, OverPointsUsesColors) {
  std::vector<Point> points = {P(0, 0), P(1, 1), P(2, 1)};
  const PartitionMatroid matroid =
      PartitionMatroid::OverPoints(points, ColorConstraint({1, 1}));
  EXPECT_TRUE(matroid.IsIndependent({0, 1}));
  EXPECT_FALSE(matroid.IsIndependent({1, 2}));
}

TEST(PartitionMatroidDeathTest, CanAddChecksElementBounds) {
  const PartitionMatroid matroid({0, 1}, ColorConstraint({1, 1}));
  EXPECT_DEATH(matroid.CanAdd({}, 2), "element");
  EXPECT_DEATH(matroid.CanAdd({}, -1), "element");
  EXPECT_DEATH(matroid.CanAdd({5}, 0), "GroundSize");
}

TEST(MaximalIndependentSubsetTest, GreedyRespectsOrderAndSeed) {
  const PartitionMatroid matroid({0, 0, 1}, ColorConstraint({1, 1}));
  // Scanning 0,1,2: takes 0 (color 0), skips 1 (cap hit), takes 2.
  const auto result = MaximalIndependentSubset(matroid, {0, 1, 2});
  EXPECT_EQ(result, (std::vector<int>{0, 2}));
  // Seeded with 1: 0 is blocked, 2 joins.
  const auto seeded = MaximalIndependentSubset(matroid, {0, 1, 2}, {1});
  EXPECT_EQ(seeded, (std::vector<int>{1, 2}));
}

TEST(MatroidIntersectionTest, TwoPartitionMatroidsModelMatching) {
  // Bipartite matching as matroid intersection: elements are edges of
  // K_{2,2} minus one edge; M1 partitions by left vertex, M2 by right.
  // Edges: 0=(L0,R0), 1=(L0,R1), 2=(L1,R0).
  const PartitionMatroid by_left({0, 0, 1}, ColorConstraint({1, 1}));
  const PartitionMatroid by_right({0, 1, 0}, ColorConstraint({1, 1}));
  const auto common = MaxCommonIndependentSet(by_left, by_right);
  EXPECT_EQ(common.size(), 2u);  // perfect matching exists: edges 1 and 2
  EXPECT_TRUE(by_left.IsIndependent(common));
  EXPECT_TRUE(by_right.IsIndependent(common));
}

TEST(MatroidIntersectionTest, UniformCapsTheSize) {
  const UniformMatroid m1(2, 6);
  const UniformMatroid m2(4, 6);
  EXPECT_EQ(MaxCommonIndependentSet(m1, m2).size(), 2u);
}

TEST(MatroidIntersectionTest, RequiresAugmentingPathsBeyondGreedy) {
  // Constructed so that a naive greedy (scan order) gets stuck at size 2 and
  // only an augmenting path reaches the optimum of 3.
  // M1 partitions {0,1},{2,3},{4,5} with caps 1; M2 partitions {1,2},{3,4},
  // {5,0} with caps 1. Optimum picks one per part in both: e.g. {0, 2, 4}?
  // 0 -> part0/M1, part2/M2; 2 -> part1/M1, part1/M2; 4 -> part2/M1,
  // part1/M2 — conflict; {1, 3, 5} works: M1 parts 0,1,2; M2 parts 0,1,2.
  const PartitionMatroid m1({0, 0, 1, 1, 2, 2}, ColorConstraint({1, 1, 1}));
  const PartitionMatroid m2({2, 0, 0, 1, 1, 2}, ColorConstraint({1, 1, 1}));
  const auto common = MaxCommonIndependentSet(m1, m2);
  EXPECT_EQ(common.size(), 3u);
  EXPECT_TRUE(m1.IsIndependent(common));
  EXPECT_TRUE(m2.IsIndependent(common));
}

TEST(MatroidIntersectionTest, EmptyGroundSet) {
  const UniformMatroid m1(2, 0), m2(2, 0);
  EXPECT_TRUE(MaxCommonIndependentSet(m1, m2).empty());
}

TEST(MatroidIntersectionTest, HasCommonIndependentSetOfSize) {
  const UniformMatroid m1(3, 5), m2(2, 5);
  EXPECT_TRUE(HasCommonIndependentSetOfSize(m1, m2, 2));
  EXPECT_FALSE(HasCommonIndependentSetOfSize(m1, m2, 3));
}

// Randomized cross-check: intersection of two random partition matroids must
// match the optimum found by exhaustive search.
class MatroidIntersectionRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MatroidIntersectionRandomTest, MatchesExhaustiveOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int n = 8;
  std::vector<int> colors1(n), colors2(n);
  for (int i = 0; i < n; ++i) {
    colors1[i] = static_cast<int>(rng.NextBounded(3));
    colors2[i] = static_cast<int>(rng.NextBounded(3));
  }
  std::vector<int> caps1(3), caps2(3);
  for (int c = 0; c < 3; ++c) {
    caps1[c] = static_cast<int>(rng.NextBounded(3));
    caps2[c] = static_cast<int>(rng.NextBounded(3));
  }
  const PartitionMatroid m1(colors1, ColorConstraint(caps1));
  const PartitionMatroid m2(colors2, ColorConstraint(caps2));

  size_t best = 0;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<int> subset;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) subset.push_back(i);
    }
    if (m1.IsIndependent(subset) && m2.IsIndependent(subset)) {
      best = std::max(best, subset.size());
    }
  }
  EXPECT_EQ(MaxCommonIndependentSet(m1, m2).size(), best)
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatroidIntersectionRandomTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace fkc
