// Capacitated bipartite matching: right-side vertices (colors) accept up to
// cap(i) matches. Used to assign cluster heads to color slots in both fair
// center solvers. Implemented by expanding each color into cap(i) slots and
// running Hopcroft–Karp — the total slot count is k, which is tiny.
#ifndef FKC_MATCHING_CAPACITATED_MATCHING_H_
#define FKC_MATCHING_CAPACITATED_MATCHING_H_

#include <cstdint>
#include <vector>

#include "matching/bipartite_graph.h"
#include "matching/hopcroft_karp.h"
#include "matroid/color_constraint.h"

namespace fkc {

/// Result of a capacitated matching of heads to colors.
struct CapacitatedMatchingResult {
  /// assigned_color[h] = color matched to head h, or -1 if unmatched.
  std::vector<int> assigned_color;
  /// Number of matched heads.
  int size = 0;

  bool Saturates(int head_count) const { return size == head_count; }
};

/// Matches heads to the color slots of a constraint. The slot layout is
/// computed once per constraint; the slot graph, the Hopcroft–Karp state and
/// the result are reused across `Match` calls, so a solver probing many radii
/// allocates only while its buffers grow to the largest probe.
class CapacitatedMatcher {
 public:
  explicit CapacitatedMatcher(const ColorConstraint& constraint) {
    SetConstraint(constraint);
  }

  /// Switches to `constraint`, keeping every buffer's capacity.
  void SetConstraint(const ColorConstraint& constraint);

  /// Computes a maximum matching of `heads` heads to colors, where head h may
  /// use color c iff `allowed[h * ell + c]` is nonzero, and color c is used
  /// at most `cap(c)` times. Head h's slots are tried by ascending color,
  /// then slot. The reference stays valid until the next call.
  const CapacitatedMatchingResult& Match(int heads,
                                         const std::vector<uint8_t>& allowed);

 private:
  int ell() const { return static_cast<int>(slot_offset_.size()) - 1; }

  // Color c owns slots [slot_offset_[c], slot_offset_[c + 1]).
  std::vector<int> slot_offset_;
  std::vector<int> slot_color_;
  BipartiteGraph graph_;
  BipartiteMatcher matcher_;
  CapacitatedMatchingResult result_;
};

}  // namespace fkc

#endif  // FKC_MATCHING_CAPACITATED_MATCHING_H_
