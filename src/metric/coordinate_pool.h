// Structure-of-arrays coordinate storage for the distance hot path.
//
// The streaming update loop scans one arriving point against a stored
// attractor set. With points stored as individual heap vectors (AoS), that
// scan chases one pointer per pair; the SIMD kernels in simd_kernels.h
// instead want the j-th coordinate of *every* stored point contiguous in
// memory. A CoordinatePool provides exactly that: one dim-major buffer
// where row d holds coordinate d of all stored points, padded to a SIMD
// lane multiple so kernels may always load full vectors.
//
// Layout:   Row(d)[i] == coordinate d of the point at dense position i,
//           rows are stride() doubles apart, stride() % kLaneAlign == 0,
//           and Row(d)[size()..stride()) is zeroed (safe over-read).
//
// Identity: Append returns a stable slot id that survives compaction; the
// dense position of a slot shifts down as earlier slots are removed
// (order-preserving compaction), mirroring vector::erase on the owner's
// side so dense position i always tracks the owner's element i.
#ifndef FKC_METRIC_COORDINATE_POOL_H_
#define FKC_METRIC_COORDINATE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "metric/point.h"

namespace fkc {

class CoordinatePool {
 public:
  /// Kernels load this many doubles per vector (AVX-512 width); stride and
  /// padding are aligned to it so every narrower kernel is covered too.
  static constexpr size_t kLaneAlign = 8;
  static constexpr uint32_t kInvalidSlot = UINT32_MAX;

  /// An empty pool of dimension 0; ResetDim before the first Append.
  CoordinatePool() = default;
  explicit CoordinatePool(size_t dim) : dim_(dim) {}
  /// A pool holding `points` in order (dense position i == points[i]), sized
  /// in one allocation; dimension 0 when `points` is empty.
  explicit CoordinatePool(const std::vector<Point>& points);

  /// Drops all points and re-dimensions the pool.
  void ResetDim(size_t dim);

  /// Stores `coords` (dim() doubles) at dense position size(); returns the
  /// stable slot id. Amortized O(dim): one strided write per row, doubling
  /// growth. Ids of removed slots may be reused.
  uint32_t Append(const double* coords);
  uint32_t Append(const Point& p);

  /// Removes one slot, shifting later points down one dense position
  /// (order-preserving). O(dim * tail).
  void Remove(uint32_t slot);

  /// Removes every dense position i with mask[i] != 0 in one compaction
  /// pass per row (order-preserving). mask.size() must equal size().
  void RemoveMasked(const std::vector<unsigned char>& dense_mask);

  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t dim() const { return dim_; }
  /// Distance between consecutive rows, a multiple of kLaneAlign (0 while
  /// nothing was ever appended).
  size_t stride() const { return stride_; }

  /// Row d: coordinate d of points at dense positions [0, size()); entries
  /// [size(), stride()) are zero so kernels may over-read to a lane
  /// boundary.
  const double* Row(size_t d) const { return data_.data() + d * stride_; }
  double At(size_t dense_pos, size_t d) const { return Row(d)[dense_pos]; }

  uint32_t SlotAt(size_t dense_pos) const { return dense_to_slot_[dense_pos]; }
  /// Dense position of a live slot id.
  size_t DensePos(uint32_t slot) const;
  bool Contains(uint32_t slot) const;

  /// Fails (FKC_CHECK) unless the id maps, padding, and zero-fill
  /// invariants all hold. Test / debug hook.
  void CheckInvariants() const;

 private:
  void EnsureCapacity(size_t min_points);

  size_t dim_ = 0;
  size_t size_ = 0;      // live points
  size_t capacity_ = 0;  // points the buffer can hold == stride_
  size_t stride_ = 0;
  std::vector<double> data_;  // dim_ rows of stride_ doubles, zero padded

  std::vector<uint32_t> dense_to_slot_;  // size_ entries
  std::vector<uint32_t> slot_to_dense_;  // kInvalidSlot == free
  std::vector<uint32_t> free_slots_;     // reusable ids
};

}  // namespace fkc

#endif  // FKC_METRIC_COORDINATE_POOL_H_
