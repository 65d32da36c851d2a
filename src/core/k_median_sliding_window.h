// Sliding-window k-median on the fair-center substrate: the guess ladder,
// coreset assembly, expiry machinery, and SoA pools are reused verbatim
// (owned as a FairCenterSlidingWindow), and only the query-time solver
// changes — the deterministic local search in sequential/k_median.h with
// k = constraint.TotalK(), following the smooth-histogram line of
// Braverman et al. ("A Unified Approach for Clustering Problems on Sliding
// Windows") and Borassi et al. ("Sliding Window Algorithms for k-Clustering
// Problems"): a coreset maintained for one clustering objective is a
// faithful window summary for its siblings.
//
// Honesty caveat, documented rather than hidden (same policy as
// QueryRobust): the reported cost is the k-median cost ON THE CORESET.
// Each coreset point stands for up to cap same-colored window points within
// delta*gamma of it, so the window cost differs by at most
// |W| * delta * gamma-hat from the reported value; the centers themselves
// are genuine window points. Color caps do not constrain the k-median
// centers — only their sum k is used.
#ifndef FKC_CORE_K_MEDIAN_SLIDING_WINDOW_H_
#define FKC_CORE_K_MEDIAN_SLIDING_WINDOW_H_

#include <string>
#include <vector>

#include "core/fair_center_sliding_window.h"
#include "core/objective_engine.h"

namespace fkc {

/// Streaming k-median over a sliding window; the ObjectiveEngine sibling of
/// FairCenterSlidingWindow sharing its substrate and determinism contracts
/// (bit-identical state at any thread count, byte-equal checkpoint
/// round-trips).
class KMedianSlidingWindow final : public ObjectiveEngine {
 public:
  /// Leading token of SerializeState blobs ("fkc-kmedian-v1"): the magic
  /// DeserializeObjectiveEngine dispatches on. The rest of the blob is the
  /// substrate's own fkc-checkpoint-v1 state, length-prefixed.
  static constexpr const char* kMagic = "fkc-kmedian-v1";

  /// `metric` and `solver` must outlive the engine. The fair-center solver
  /// is substrate plumbing only (validation, robust queries); k-median
  /// queries run the local search instead.
  KMedianSlidingWindow(SlidingWindowOptions options, ColorConstraint constraint,
                       const Metric* metric, const FairCenterSolver* solver);

  ObjectiveKind kind() const override { return ObjectiveKind::kKMedian; }

  void Update(Coordinates coords, int color);
  void Update(Point p) override;
  void UpdateBatch(std::vector<Point> batch) override;

  /// Coreset selection via the substrate's PlanQuery (sequential ladder
  /// scan, deterministic guess choice), then the deterministic
  /// k-median local search with k = constraint().TotalK().
  Result<ObjectiveSolution> QueryObjective(QueryStats* stats = nullptr) override;

  std::string SerializeState() const override;
  static Result<KMedianSlidingWindow> DeserializeState(
      const std::string& bytes, const Metric* metric,
      const FairCenterSolver* solver);

  MemoryStats Memory() const override { return substrate_.Memory(); }
  int64_t ExpirySweeps() const override { return substrate_.ExpirySweeps(); }
  int64_t now() const override { return substrate_.now(); }
  int64_t state_epoch() const override { return substrate_.state_epoch(); }
  int64_t WindowPopulation() const override {
    return substrate_.WindowPopulation();
  }
  int64_t dimension() const override { return substrate_.dimension(); }
  const SlidingWindowOptions& options() const override {
    return substrate_.options();
  }
  const ColorConstraint& constraint() const override {
    return substrate_.constraint();
  }

  /// The shared ladder underneath (tests peek at substrate diagnostics).
  const FairCenterSlidingWindow& substrate() const { return substrate_; }

 private:
  KMedianSlidingWindow(FairCenterSlidingWindow substrate, const Metric* metric);

  FairCenterSlidingWindow substrate_;
  const Metric* metric_;
};

}  // namespace fkc

#endif  // FKC_CORE_K_MEDIAN_SLIDING_WINDOW_H_
