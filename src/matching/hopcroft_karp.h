// Hopcroft–Karp maximum bipartite matching, O(E sqrt(V)).
//
// This is the combinatorial engine behind the Jones et al. fair-center
// algorithm (heads matched to color slots) and the partition-matroid
// feasibility check of the Chen et al. matroid-center baseline.
#ifndef FKC_MATCHING_HOPCROFT_KARP_H_
#define FKC_MATCHING_HOPCROFT_KARP_H_

#include <vector>

#include "matching/bipartite_graph.h"

namespace fkc {

/// Result of a maximum-matching computation.
struct MatchingResult {
  /// match_left[l] = matched right vertex, or -1 if l is unmatched.
  std::vector<int> match_left;
  /// match_right[r] = matched left vertex, or -1 if r is unmatched.
  std::vector<int> match_right;
  /// Number of matched pairs.
  int size = 0;

  bool Saturates(int left_count) const { return size == left_count; }
};

/// Computes maximum matchings, reusing its result and scratch buffers across
/// calls: once they have grown to the largest graph seen, `Match` allocates
/// nothing. Phases visit left vertices in ascending order, each vertex's
/// edges in insertion order, and the BFS frontier first-in first-out, so the
/// matching is a deterministic function of the graph.
class BipartiteMatcher {
 public:
  /// Computes a maximum matching of `graph`. The reference stays valid until
  /// the next call.
  const MatchingResult& Match(const BipartiteGraph& graph);

 private:
  bool Bfs(const BipartiteGraph& graph);
  bool Dfs(const BipartiteGraph& graph, int l);

  MatchingResult result_;
  std::vector<int> dist_;      // BFS layer of each left vertex
  std::vector<int> frontier_;  // BFS queue: frontier_[head..] is pending
};

}  // namespace fkc

#endif  // FKC_MATCHING_HOPCROFT_KARP_H_
