#include "metric/coordinate_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace fkc {

void CoordinatePool::ResetDim(size_t dim) {
  dim_ = dim;
  Clear();
  data_.clear();
  data_.shrink_to_fit();
  capacity_ = 0;
  stride_ = 0;
}

void CoordinatePool::Clear() {
  size_ = 0;
  std::fill(data_.begin(), data_.end(), 0.0);
  dense_to_slot_.clear();
  slot_to_dense_.clear();
  free_slots_.clear();
}

void CoordinatePool::EnsureCapacity(size_t min_points) {
  if (min_points <= capacity_) return;
  size_t new_capacity = capacity_ == 0 ? kLaneAlign : capacity_;
  while (new_capacity < min_points) new_capacity *= 2;
  // Round to the lane multiple so stride keeps every row over-readable.
  new_capacity = (new_capacity + kLaneAlign - 1) / kLaneAlign * kLaneAlign;
  // Keep the row stride off 4 KiB multiples: with a 4 KiB-aliased stride
  // every row's element i lands in the same L1 set, and the dim-outer
  // kernel walk (one load per row at fixed i) thrashes that set at high
  // dimension. One extra lane of padding breaks the alignment.
  constexpr size_t kPageDoubles = 4096 / sizeof(double);
  if (new_capacity % kPageDoubles == 0) new_capacity += kLaneAlign;
  std::vector<double> grown(dim_ * new_capacity, 0.0);
  if (size_ > 0) {  // first growth copies from an empty (null-data) buffer
    for (size_t d = 0; d < dim_; ++d) {
      std::memcpy(grown.data() + d * new_capacity, data_.data() + d * stride_,
                  size_ * sizeof(double));
    }
  }
  data_ = std::move(grown);
  capacity_ = new_capacity;
  stride_ = new_capacity;
}

uint32_t CoordinatePool::Append(const double* coords) {
  FKC_CHECK_GT(dim_, 0u) << "ResetDim before Append";
  EnsureCapacity(size_ + 1);
  for (size_t d = 0; d < dim_; ++d) {
    data_[d * stride_ + size_] = coords[d];
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slot_to_dense_.size());
    slot_to_dense_.push_back(kInvalidSlot);
  }
  slot_to_dense_[slot] = static_cast<uint32_t>(size_);
  dense_to_slot_.push_back(slot);
  ++size_;
  return slot;
}

uint32_t CoordinatePool::Append(const Point& p) {
  FKC_CHECK_EQ(p.coords.size(), dim_);
  return Append(p.coords.data());
}

size_t CoordinatePool::DensePos(uint32_t slot) const {
  FKC_CHECK(Contains(slot)) << "dead or unknown slot " << slot;
  return slot_to_dense_[slot];
}

bool CoordinatePool::Contains(uint32_t slot) const {
  return slot < slot_to_dense_.size() && slot_to_dense_[slot] != kInvalidSlot;
}

void CoordinatePool::Remove(uint32_t slot) {
  const size_t pos = DensePos(slot);
  const size_t tail = size_ - pos - 1;
  for (size_t d = 0; d < dim_; ++d) {
    double* row = data_.data() + d * stride_;
    std::memmove(row + pos, row + pos + 1, tail * sizeof(double));
    row[size_ - 1] = 0.0;  // keep the padding zeroed
  }
  slot_to_dense_[slot] = kInvalidSlot;
  free_slots_.push_back(slot);
  dense_to_slot_.erase(dense_to_slot_.begin() + static_cast<long>(pos));
  for (size_t i = pos; i < dense_to_slot_.size(); ++i) {
    slot_to_dense_[dense_to_slot_[i]] = static_cast<uint32_t>(i);
  }
  --size_;
}

void CoordinatePool::RemoveMasked(
    const std::vector<unsigned char>& dense_mask) {
  FKC_CHECK_EQ(dense_mask.size(), size_);
  size_t write = 0;
  for (size_t read = 0; read < size_; ++read) {
    if (dense_mask[read]) {
      const uint32_t slot = dense_to_slot_[read];
      slot_to_dense_[slot] = kInvalidSlot;
      free_slots_.push_back(slot);
      continue;
    }
    if (write != read) {
      for (size_t d = 0; d < dim_; ++d) {
        data_[d * stride_ + write] = data_[d * stride_ + read];
      }
      dense_to_slot_[write] = dense_to_slot_[read];
      slot_to_dense_[dense_to_slot_[write]] = static_cast<uint32_t>(write);
    }
    ++write;
  }
  for (size_t d = 0; d < dim_; ++d) {
    double* row = data_.data() + d * stride_;
    std::fill(row + write, row + size_, 0.0);
  }
  dense_to_slot_.resize(write);
  size_ = write;
}

void CoordinatePool::CheckInvariants() const {
  FKC_CHECK_EQ(dense_to_slot_.size(), size_);
  FKC_CHECK_EQ(stride_ % kLaneAlign, 0u);
  FKC_CHECK_GE(capacity_, size_);
  size_t live = 0;
  for (size_t slot = 0; slot < slot_to_dense_.size(); ++slot) {
    const uint32_t pos = slot_to_dense_[slot];
    if (pos == kInvalidSlot) continue;
    ++live;
    FKC_CHECK_LT(pos, size_);
    FKC_CHECK_EQ(dense_to_slot_[pos], slot);
  }
  FKC_CHECK_EQ(live, size_);
  FKC_CHECK_EQ(free_slots_.size() + live, slot_to_dense_.size());
  for (size_t d = 0; d < dim_; ++d) {
    const double* row = Row(d);
    for (size_t i = size_; i < stride_; ++i) {
      FKC_CHECK_EQ(row[i], 0.0) << "padding must stay zeroed";
    }
  }
}

CoordinatePool::CoordinatePool(const std::vector<Point>& points)
    : dim_(points.empty() ? 0 : points[0].dimension()) {
  if (points.empty()) return;
  EnsureCapacity(points.size());
  dense_to_slot_.reserve(points.size());
  slot_to_dense_.reserve(points.size());
  for (const Point& p : points) Append(p);
}

}  // namespace fkc
