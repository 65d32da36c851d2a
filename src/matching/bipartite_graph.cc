#include "matching/bipartite_graph.h"

#include "common/logging.h"

namespace fkc {

BipartiteGraph::BipartiteGraph(int left_size, int right_size) {
  Reset(left_size, right_size);
}

void BipartiteGraph::Reset(int left_size, int right_size) {
  FKC_CHECK_GE(left_size, 0);
  FKC_CHECK_GE(right_size, 0);
  offsets_.assign(static_cast<size_t>(left_size) + 1, 0);
  targets_.clear();
  right_size_ = right_size;
  open_row_ = 0;
}

void BipartiteGraph::AddEdge(int left, int right) {
  FKC_CHECK_GE(left, open_row_) << "edges must be added in nondecreasing left";
  FKC_CHECK_LT(left, left_size());
  FKC_CHECK_GE(right, 0);
  FKC_CHECK_LT(right, right_size_);
  // Rows open_row_+1 .. left start here (the skipped ones stay empty).
  const int end = static_cast<int>(targets_.size());
  while (open_row_ < left) offsets_[++open_row_] = end;
  targets_.push_back(right);
}

}  // namespace fkc
