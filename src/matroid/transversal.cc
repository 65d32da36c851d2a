#include "matroid/transversal.h"

#include <numeric>

#include "common/logging.h"
#include "matching/hopcroft_karp.h"

namespace fkc {

TransversalMatroid::TransversalMatroid(BipartiteGraph graph)
    : graph_(std::move(graph)) {}

bool TransversalMatroid::IsIndependent(const std::vector<int>& elements) const {
  // Restrict the graph to the chosen left vertices and check saturation.
  BipartiteGraph sub(static_cast<int>(elements.size()), graph_.right_size());
  for (size_t i = 0; i < elements.size(); ++i) {
    FKC_CHECK_GE(elements[i], 0);
    FKC_CHECK_LT(elements[i], GroundSize());
    for (int r : graph_.Neighbors(elements[i])) {
      sub.AddEdge(static_cast<int>(i), r);
    }
  }
  BipartiteMatcher matcher;
  return matcher.Match(sub).Saturates(static_cast<int>(elements.size()));
}

int TransversalMatroid::Rank() const {
  BipartiteMatcher matcher;
  return matcher.Match(graph_).size;
}

}  // namespace fkc
