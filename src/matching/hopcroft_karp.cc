#include "matching/hopcroft_karp.h"

#include <cstddef>
#include <limits>

namespace fkc {
namespace {

constexpr int kInf = std::numeric_limits<int>::max();

}  // namespace

// Layered BFS from free left vertices; returns true if an augmenting path
// exists. dist_[l] is the BFS layer of left vertex l.
bool BipartiteMatcher::Bfs(const BipartiteGraph& graph) {
  const std::vector<int>& match_left = result_.match_left;
  const std::vector<int>& match_right = result_.match_right;
  frontier_.clear();
  for (int l = 0; l < graph.left_size(); ++l) {
    if (match_left[l] == -1) {
      dist_[l] = 0;
      frontier_.push_back(l);
    } else {
      dist_[l] = kInf;
    }
  }
  bool found_augmenting = false;
  // Every left vertex is pushed at most once, so the queue never wraps.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const int l = frontier_[head];
    for (int r : graph.Neighbors(l)) {
      const int next = match_right[r];
      if (next == -1) {
        found_augmenting = true;
      } else if (dist_[next] == kInf) {
        dist_[next] = dist_[l] + 1;
        frontier_.push_back(next);
      }
    }
  }
  return found_augmenting;
}

// DFS along layered edges, flipping matched/unmatched status on success.
bool BipartiteMatcher::Dfs(const BipartiteGraph& graph, int l) {
  for (int r : graph.Neighbors(l)) {
    const int next = result_.match_right[r];
    if (next == -1 || (dist_[next] == dist_[l] + 1 && Dfs(graph, next))) {
      result_.match_left[l] = r;
      result_.match_right[r] = l;
      return true;
    }
  }
  dist_[l] = kInf;  // dead end: prune this vertex for the current phase
  return false;
}

const MatchingResult& BipartiteMatcher::Match(const BipartiteGraph& graph) {
  const int left = graph.left_size();
  result_.match_left.assign(left, -1);
  result_.match_right.assign(graph.right_size(), -1);
  result_.size = 0;
  dist_.assign(left, kInf);
  frontier_.reserve(left);
  while (Bfs(graph)) {
    for (int l = 0; l < left; ++l) {
      if (result_.match_left[l] == -1 && Dfs(graph, l)) ++result_.size;
    }
  }
  return result_;
}

}  // namespace fkc
