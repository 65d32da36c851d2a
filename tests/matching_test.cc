// Tests for src/matching: bipartite graph plumbing, Hopcroft-Karp maximum
// matching (cross-checked against exhaustive search), and the capacitated
// color-slot wrapper (cross-checked, matching for matching, against a
// slot-expanded Hopcroft-Karp over nested adjacency lists).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>

#include "common/random.h"
#include "matching/bipartite_graph.h"
#include "matching/capacitated_matching.h"
#include "matching/hopcroft_karp.h"

namespace fkc {
namespace {

TEST(BipartiteGraphTest, AccessorsAndEdges) {
  BipartiteGraph graph(2, 3);
  EXPECT_EQ(graph.left_size(), 2);
  EXPECT_EQ(graph.right_size(), 3);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 0);
  graph.AddEdge(1, 1);
  EXPECT_EQ(graph.edge_count(), 3);
  const auto neighbors = graph.Neighbors(1);
  EXPECT_EQ(std::vector<int>(neighbors.begin(), neighbors.end()),
            (std::vector<int>{0, 1}));
}

TEST(BipartiteGraphTest, RowsSkippedOrPastTheLastEdgeAreEmpty) {
  BipartiteGraph graph(4, 2);
  graph.AddEdge(1, 0);
  EXPECT_EQ(graph.Neighbors(0).size(), 0);
  EXPECT_EQ(graph.Neighbors(1).size(), 1);
  EXPECT_EQ(graph.Neighbors(2).size(), 0);
  graph.AddEdge(3, 1);
  EXPECT_EQ(graph.Neighbors(1).size(), 1);
  EXPECT_EQ(graph.Neighbors(2).size(), 0);
  EXPECT_EQ(*graph.Neighbors(3).begin(), 1);
  graph.Reset(2, 2);
  EXPECT_EQ(graph.left_size(), 2);
  EXPECT_EQ(graph.edge_count(), 0);
  EXPECT_EQ(graph.Neighbors(1).size(), 0);
}

TEST(BipartiteGraphDeathTest, RejectsOutOfOrderEdge) {
  BipartiteGraph graph(3, 3);
  graph.AddEdge(2, 0);
  EXPECT_DEATH(graph.AddEdge(1, 0), "nondecreasing");
}

TEST(HopcroftKarpTest, PerfectMatching) {
  BipartiteGraph graph(3, 3);
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 3; ++r) graph.AddEdge(l, r);
  }
  BipartiteMatcher matcher;
  const MatchingResult& result = matcher.Match(graph);
  EXPECT_EQ(result.size, 3);
  EXPECT_TRUE(result.Saturates(3));
  // Consistency: match_left and match_right agree.
  for (int l = 0; l < 3; ++l) {
    ASSERT_NE(result.match_left[l], -1);
    EXPECT_EQ(result.match_right[result.match_left[l]], l);
  }
}

TEST(HopcroftKarpTest, NeedsAugmentingPath) {
  // Greedy scan order would match L0-R0 and strand L1; the optimum flips.
  BipartiteGraph graph(2, 2);
  graph.AddEdge(0, 0);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 0);
  BipartiteMatcher matcher;
  EXPECT_EQ(matcher.Match(graph).size, 2);
}

TEST(HopcroftKarpTest, EmptyGraph) {
  BipartiteMatcher matcher;
  EXPECT_EQ(matcher.Match(BipartiteGraph(0, 0)).size, 0);
}

TEST(HopcroftKarpTest, NoEdges) {
  BipartiteMatcher matcher;
  const MatchingResult& result = matcher.Match(BipartiteGraph(3, 3));
  EXPECT_EQ(result.size, 0);
  EXPECT_EQ(result.match_left, (std::vector<int>{-1, -1, -1}));
}

TEST(HopcroftKarpTest, DuplicateEdgesHarmless) {
  BipartiteGraph graph(1, 1);
  graph.AddEdge(0, 0);
  graph.AddEdge(0, 0);
  BipartiteMatcher matcher;
  EXPECT_EQ(matcher.Match(graph).size, 1);
}

// Exhaustive maximum matching by trying all left->right assignments.
int BruteForceMatching(const BipartiteGraph& graph) {
  std::vector<int> order(graph.left_size());
  for (int i = 0; i < graph.left_size(); ++i) order[i] = i;
  int best = 0;
  std::vector<bool> used(graph.right_size(), false);
  std::function<void(int, int)> go = [&](int idx, int matched) {
    best = std::max(best, matched);
    if (idx == graph.left_size()) return;
    go(idx + 1, matched);  // leave idx unmatched
    for (int r : graph.Neighbors(idx)) {
      if (!used[r]) {
        used[r] = true;
        go(idx + 1, matched + 1);
        used[r] = false;
      }
    }
  };
  go(0, 0);
  return best;
}

class HopcroftKarpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HopcroftKarpRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int left = 2 + static_cast<int>(rng.NextBounded(5));
  const int right = 2 + static_cast<int>(rng.NextBounded(5));
  BipartiteGraph graph(left, right);
  for (int l = 0; l < left; ++l) {
    for (int r = 0; r < right; ++r) {
      if (rng.NextBernoulli(0.4)) graph.AddEdge(l, r);
    }
  }
  BipartiteMatcher matcher;
  EXPECT_EQ(matcher.Match(graph).size, BruteForceMatching(graph))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HopcroftKarpRandomTest,
                         ::testing::Range(1, 31));

// The flat head x color table the matcher takes, from per-head color lists.
std::vector<uint8_t> AllowedTable(const std::vector<std::vector<int>>& allowed,
                                  int ell) {
  std::vector<uint8_t> table(allowed.size() * ell, 0);
  for (size_t h = 0; h < allowed.size(); ++h) {
    for (int c : allowed[h]) table[h * ell + c] = 1;
  }
  return table;
}

TEST(CapacitatedMatchingTest, RespectsCapacities) {
  // Three heads all want color 0 with cap 2: only two can be matched.
  const ColorConstraint constraint({2, 0});
  const std::vector<std::vector<int>> allowed = {{0}, {0}, {0}};
  CapacitatedMatcher matcher(constraint);
  const auto& result = matcher.Match(3, AllowedTable(allowed, 2));
  EXPECT_EQ(result.size, 2);
  int matched_to_0 = 0;
  for (int h = 0; h < 3; ++h) {
    if (result.assigned_color[h] == 0) ++matched_to_0;
  }
  EXPECT_EQ(matched_to_0, 2);
}

TEST(CapacitatedMatchingTest, SaturatesWhenPossible) {
  const ColorConstraint constraint({1, 1, 1});
  const std::vector<std::vector<int>> allowed = {{0, 1}, {1, 2}, {0, 2}};
  CapacitatedMatcher matcher(constraint);
  const auto& result = matcher.Match(3, AllowedTable(allowed, 3));
  EXPECT_TRUE(result.Saturates(3));
  // Assigned colors must be a permutation-with-caps.
  std::vector<int> counts(3, 0);
  for (int h = 0; h < 3; ++h) {
    ASSERT_GE(result.assigned_color[h], 0);
    ++counts[result.assigned_color[h]];
  }
  for (int c = 0; c < 3; ++c) EXPECT_LE(counts[c], 1);
}

TEST(CapacitatedMatchingTest, EmptyInstances) {
  const ColorConstraint constraint({1});
  CapacitatedMatcher matcher(constraint);
  EXPECT_EQ(matcher.Match(0, {}).size, 0);
  EXPECT_EQ(matcher.Match(1, {0}).size, 0);
}

TEST(CapacitatedMatchingTest, AssignedColorsComeFromAllowedSets) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int heads = 1 + static_cast<int>(rng.NextBounded(5));
    const int ell = 1 + static_cast<int>(rng.NextBounded(4));
    std::vector<int> caps(ell);
    for (int& c : caps) c = static_cast<int>(rng.NextBounded(3));
    std::vector<std::vector<int>> allowed(heads);
    for (auto& row : allowed) {
      for (int c = 0; c < ell; ++c) {
        if (rng.NextBernoulli(0.5)) row.push_back(c);
      }
    }
    const ColorConstraint constraint(caps);
    CapacitatedMatcher matcher(constraint);
    const auto& result = matcher.Match(heads, AllowedTable(allowed, ell));
    std::vector<int> usage(ell, 0);
    for (int h = 0; h < heads; ++h) {
      const int color = result.assigned_color[h];
      if (color == -1) continue;
      EXPECT_NE(std::find(allowed[h].begin(), allowed[h].end(), color),
                allowed[h].end());
      ++usage[color];
    }
    for (int c = 0; c < ell; ++c) EXPECT_LE(usage[c], caps[c]);
  }
}

TEST(CapacitatedMatchingDeathTest, RejectsTableOfWrongSize) {
  CapacitatedMatcher matcher(ColorConstraint({1, 1}));
  EXPECT_DEATH(matcher.Match(2, {1, 1, 1}), "allowed.size");
}

// The slot-expanded Hopcroft-Karp the matcher replaced: nested adjacency
// lists grown edge by edge, a std::queue BFS frontier and fresh buffers on
// every call. Kept verbatim in behaviour as the reference the flat matcher
// must reproduce exactly.
CapacitatedMatchingResult ReferenceCapacitatedMatching(
    const std::vector<std::vector<int>>& allowed,
    const ColorConstraint& constraint) {
  constexpr int kInf = std::numeric_limits<int>::max();
  const int heads = static_cast<int>(allowed.size());
  const int ell = constraint.ell();
  std::vector<int> slot_offset(ell + 1, 0);
  for (int i = 0; i < ell; ++i) {
    slot_offset[i + 1] = slot_offset[i] + constraint.cap(i);
  }
  const int total_slots = slot_offset[ell];
  std::vector<std::vector<int>> adjacency(heads);
  for (int h = 0; h < heads; ++h) {
    for (int color : allowed[h]) {
      for (int s = slot_offset[color]; s < slot_offset[color + 1]; ++s) {
        adjacency[h].push_back(s);
      }
    }
  }

  std::vector<int> match_left(heads, -1);
  std::vector<int> match_right(total_slots, -1);
  std::vector<int> dist(heads, kInf);
  auto bfs = [&]() {
    std::queue<int> frontier;
    for (int l = 0; l < heads; ++l) {
      if (match_left[l] == -1) {
        dist[l] = 0;
        frontier.push(l);
      } else {
        dist[l] = kInf;
      }
    }
    bool found_augmenting = false;
    while (!frontier.empty()) {
      const int l = frontier.front();
      frontier.pop();
      for (int r : adjacency[l]) {
        const int next = match_right[r];
        if (next == -1) {
          found_augmenting = true;
        } else if (dist[next] == kInf) {
          dist[next] = dist[l] + 1;
          frontier.push(next);
        }
      }
    }
    return found_augmenting;
  };
  std::function<bool(int)> dfs = [&](int l) {
    for (int r : adjacency[l]) {
      const int next = match_right[r];
      if (next == -1 || (dist[next] == dist[l] + 1 && dfs(next))) {
        match_left[l] = r;
        match_right[r] = l;
        return true;
      }
    }
    dist[l] = kInf;
    return false;
  };
  int size = 0;
  while (bfs()) {
    for (int l = 0; l < heads; ++l) {
      if (match_left[l] == -1 && dfs(l)) ++size;
    }
  }

  CapacitatedMatchingResult result;
  result.assigned_color.assign(heads, -1);
  result.size = size;
  for (int h = 0; h < heads; ++h) {
    const int slot = match_left[h];
    if (slot == -1) continue;
    for (int i = 0; i < ell; ++i) {
      if (slot >= slot_offset[i] && slot < slot_offset[i + 1]) {
        result.assigned_color[h] = i;
        break;
      }
    }
  }
  return result;
}

// Seeded instances of every shape the solvers produce and then some, fed
// through ONE matcher in sequence (constraints, head counts and densities
// all change between calls), so any state a call leaves behind in the
// reused graph, frontier or result shows up as a different matching.
TEST(CapacitatedMatchingTest, ReusedMatcherReproducesReferenceExactly) {
  Rng rng(2024);
  CapacitatedMatcher matcher(ColorConstraint({1}));
  int saturated = 0;
  int partial = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int heads = static_cast<int>(rng.NextBounded(41));
    const int ell = 1 + static_cast<int>(rng.NextBounded(9));
    std::vector<int> caps(ell);
    for (int& c : caps) c = static_cast<int>(rng.NextBounded(5));
    const double density = rng.NextDouble();
    // Ascending color lists (the order the matcher tries them in); a row
    // may be empty, and a color may repeat, which duplicates its edges in
    // the reference graph only.
    std::vector<std::vector<int>> allowed(heads);
    for (auto& row : allowed) {
      if (rng.NextBernoulli(0.1)) continue;
      for (int c = 0; c < ell; ++c) {
        if (!rng.NextBernoulli(density)) continue;
        row.push_back(c);
        if (rng.NextBernoulli(0.15)) row.push_back(c);
      }
    }
    const ColorConstraint constraint(caps);
    const CapacitatedMatchingResult expected =
        ReferenceCapacitatedMatching(allowed, constraint);
    matcher.SetConstraint(constraint);
    const CapacitatedMatchingResult& actual =
        matcher.Match(heads, AllowedTable(allowed, ell));
    ASSERT_EQ(actual.size, expected.size) << "trial=" << trial;
    ASSERT_EQ(actual.assigned_color, expected.assigned_color)
        << "trial=" << trial;
    (actual.Saturates(heads) ? saturated : partial) += 1;
  }
  // Both outcomes of a radius probe are exercised.
  EXPECT_GT(saturated, 100);
  EXPECT_GT(partial, 100);
}

}  // namespace
}  // namespace fkc
