#include "matroid/partition_matroid.h"

#include <algorithm>

#include "common/logging.h"

namespace fkc {

PartitionMatroid::PartitionMatroid(std::vector<int> element_colors,
                                   ColorConstraint constraint)
    : element_colors_(std::move(element_colors)),
      constraint_(std::move(constraint)) {
  for (int color : element_colors_) {
    FKC_CHECK_GE(color, 0);
    FKC_CHECK_LT(color, constraint_.ell());
  }
}

PartitionMatroid PartitionMatroid::OverPoints(
    const std::vector<Point>& points, const ColorConstraint& constraint) {
  std::vector<int> colors;
  colors.reserve(points.size());
  for (const Point& p : points) colors.push_back(p.color);
  return PartitionMatroid(std::move(colors), constraint);
}

bool PartitionMatroid::IsIndependent(const std::vector<int>& elements) const {
  std::vector<int> counts(constraint_.ell(), 0);
  for (int e : elements) {
    FKC_CHECK_GE(e, 0);
    FKC_CHECK_LT(e, GroundSize());
    const int color = element_colors_[e];
    if (++counts[color] > constraint_.cap(color)) return false;
  }
  return true;
}

bool PartitionMatroid::CanAdd(const std::vector<int>& independent_set,
                              int element) const {
  FKC_CHECK_GE(element, 0);
  FKC_CHECK_LT(element, GroundSize());
  const int color = element_colors_[element];
  int count = 0;
  for (int e : independent_set) {
    FKC_CHECK_GE(e, 0);
    FKC_CHECK_LT(e, GroundSize());
    if (element_colors_[e] == color) ++count;
  }
  return count < constraint_.cap(color);
}

int PartitionMatroid::Rank() const {
  // Rank = sum over colors of min(cap, #elements of that color).
  std::vector<int> counts(constraint_.ell(), 0);
  for (int color : element_colors_) ++counts[color];
  int rank = 0;
  for (int i = 0; i < constraint_.ell(); ++i) {
    rank += std::min(counts[i], constraint_.cap(i));
  }
  return rank;
}

}  // namespace fkc
