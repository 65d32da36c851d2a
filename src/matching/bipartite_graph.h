// Bipartite graph representation shared by the matching algorithms.
#ifndef FKC_MATCHING_BIPARTITE_GRAPH_H_
#define FKC_MATCHING_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <vector>

namespace fkc {

/// A bipartite graph with `left_size` left vertices and `right_size` right
/// vertices, stored as one compressed sparse row (CSR) array: the neighbors
/// of each left vertex are one contiguous run of `targets_`, starting at
/// `offsets_[l]`. Edges are appended in nondecreasing `left` order (checked),
/// so building never allocates per vertex, and `Reset` keeps both arrays'
/// capacity for reuse.
class BipartiteGraph {
 public:
  /// The neighbors of one left vertex, in insertion order.
  struct NeighborRange {
    const int* first;
    const int* last;
    const int* begin() const { return first; }
    const int* end() const { return last; }
    int size() const { return static_cast<int>(last - first); }
  };

  BipartiteGraph() : BipartiteGraph(0, 0) {}
  BipartiteGraph(int left_size, int right_size);

  /// Drops every edge and resizes, keeping the allocated capacity.
  void Reset(int left_size, int right_size);

  /// Appends an edge. `left` must be >= the left end of every earlier edge.
  /// Duplicate edges are allowed and harmless for matching.
  void AddEdge(int left, int right);

  int left_size() const { return static_cast<int>(offsets_.size()) - 1; }
  int right_size() const { return right_size_; }
  int64_t edge_count() const { return static_cast<int64_t>(targets_.size()); }

  NeighborRange Neighbors(int left) const {
    // Rows past the last edge's left vertex are empty; their offsets are
    // written only when a later row starts.
    const int* base = targets_.data();
    if (left >= open_row_) {
      const int* tail = base + targets_.size();
      return {left == open_row_ ? base + offsets_[left] : tail, tail};
    }
    return {base + offsets_[left], base + offsets_[left + 1]};
  }

 private:
  // offsets_[l] is the first edge of row l for every l <= open_row_; the
  // open row runs to the end of targets_.
  std::vector<int> offsets_;
  std::vector<int> targets_;
  int right_size_ = 0;
  int open_row_ = 0;
};

}  // namespace fkc

#endif  // FKC_MATCHING_BIPARTITE_GRAPH_H_
