#include "matching/capacitated_matching.h"

#include "common/logging.h"

namespace fkc {

void CapacitatedMatcher::SetConstraint(const ColorConstraint& constraint) {
  // Expand color i into cap(i) identical slots.
  const int ell = constraint.ell();
  slot_offset_.assign(ell + 1, 0);
  slot_color_.clear();
  for (int i = 0; i < ell; ++i) {
    slot_offset_[i + 1] = slot_offset_[i] + constraint.cap(i);
    slot_color_.insert(slot_color_.end(), constraint.cap(i), i);
  }
}

const CapacitatedMatchingResult& CapacitatedMatcher::Match(
    int heads, const std::vector<uint8_t>& allowed) {
  const int colors = ell();
  FKC_CHECK_GE(heads, 0);
  FKC_CHECK_EQ(allowed.size(), static_cast<size_t>(heads) * colors);

  graph_.Reset(heads, static_cast<int>(slot_color_.size()));
  for (int h = 0; h < heads; ++h) {
    const uint8_t* row = allowed.data() + static_cast<size_t>(h) * colors;
    for (int c = 0; c < colors; ++c) {
      if (row[c] == 0) continue;
      for (int s = slot_offset_[c]; s < slot_offset_[c + 1]; ++s) {
        graph_.AddEdge(h, s);
      }
    }
  }

  const MatchingResult& matching = matcher_.Match(graph_);
  result_.assigned_color.assign(heads, -1);
  result_.size = matching.size;
  for (int h = 0; h < heads; ++h) {
    const int slot = matching.match_left[h];
    if (slot != -1) result_.assigned_color[h] = slot_color_[slot];
  }
  return result_;
}

}  // namespace fkc
