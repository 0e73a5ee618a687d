// A small dense float tensor.
//
// Contiguous, row-major, value-semantic. Shapes are vectors of dimensions;
// rank 0 is disallowed (use a rank-1 tensor of size 1 for scalars). All
// layers in src/nn operate on batch-first tensors: [N, D] for vector data and
// [N, C, H, W] for image data.
//
// Every tensor carries a per-object modification counter (version()): any
// non-const access that could mutate elements bumps it. Layers use it to
// invalidate caches derived from a tensor's contents (e.g. the pre-packed
// GEMM panels of a weight matrix) without rescanning the data. The counter
// is monotonic per object; it deliberately over-counts (a non-const data()
// that never writes still bumps) — consumers only rely on "unchanged version
// implies unchanged contents".
//
// The counter is deliberately NOT synchronized: bumping it from concurrent
// threads is a data race even when the element writes themselves are
// disjoint. Parallel writers to a shared tensor must therefore hoist a
// single non-const data()/flat() call out of the parallel region and share
// the raw pointer (see nn::Conv2d's calls into the raw-pointer
// implicit-GEMM helpers of tensor/ops.h for the idiom).
//
// internal::TensorAllocCount() counts element-buffer allocations process-wide
// so tests can assert that steady-state hot paths stop allocating (see
// tests/test_alloc_free.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace cip {

using Shape = std::vector<std::size_t>;

/// Total number of elements of a shape.
std::size_t NumElements(const Shape& shape);

/// Human-readable shape, e.g. "[32, 3, 12, 12]".
std::string ShapeToString(const Shape& shape);

namespace internal {

/// Process-wide count of tensor element-buffer allocations (constructions
/// and capacity-growing assignments). Monotonic; tests snapshot it around a
/// steady-state region and assert the delta. Thread-safe.
std::uint64_t TensorAllocCount();

/// Bump TensorAllocCount(). Called by Tensor's allocating paths only.
void BumpTensorAllocCount();

}  // namespace internal

class Tensor {
 public:
  /// Empty tensor (rank 1, size 0). Useful as a placeholder.
  Tensor() : shape_{0} {}

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)), data_(NumElements(shape_), 0.0f) {
    CIP_CHECK(!shape_.empty());
    if (!data_.empty()) internal::BumpTensorAllocCount();
  }

  Tensor(Shape shape, float fill)
      : shape_(std::move(shape)), data_(NumElements(shape_), fill) {
    CIP_CHECK(!shape_.empty());
    if (!data_.empty()) internal::BumpTensorAllocCount();
  }

  /// Takes ownership of `data`; size must match the shape.
  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    CIP_CHECK(!shape_.empty());
    CIP_CHECK_EQ(data_.size(), NumElements(shape_));
  }

  Tensor(const Tensor& o) : shape_(o.shape_), data_(o.data_) {
    if (!data_.empty()) internal::BumpTensorAllocCount();
  }

  Tensor(Tensor&& o) noexcept = default;

  /// Copy assignment reuses existing capacity when it fits; the version is
  /// always bumped (contents may have changed).
  Tensor& operator=(const Tensor& o) {
    if (this != &o) {
      if (o.data_.size() > data_.capacity() && !o.data_.empty()) {
        internal::BumpTensorAllocCount();
      }
      shape_ = o.shape_;
      data_ = o.data_;
      ++version_;
    }
    return *this;
  }

  Tensor& operator=(Tensor&& o) noexcept {
    if (this != &o) {
      shape_ = std::move(o.shape_);
      data_ = std::move(o.data_);
      ++version_;
    }
    return *this;
  }

  /// Convenience for tests: rank-1 tensor from a list.
  static Tensor FromList(std::initializer_list<float> values) {
    return Tensor({values.size()}, std::vector<float>(values));
  }

  const Shape& shape() const { return shape_; }
  /// Number of dimensions (always >= 1).
  std::size_t rank() const { return shape_.size(); }
  /// Total element count (product of all dimensions).
  std::size_t size() const { return data_.size(); }
  /// Extent of dimension `i`; checks i < rank().
  std::size_t dim(std::size_t i) const {
    CIP_CHECK_LT(i, shape_.size());
    return shape_[i];
  }

  /// Modification counter: bumped by every access that may mutate elements.
  /// Unchanged version implies unchanged contents (the converse need not
  /// hold). Monotonic per object; not meaningful across objects.
  std::uint64_t version() const { return version_; }

  /// Raw contiguous row-major storage; valid until the tensor is resized.
  float* data() {
    ++version_;
    return data_.data();
  }
  const float* data() const { return data_.data(); }
  /// Whole storage as a span (same lifetime caveats as data()).
  std::span<float> flat() {
    ++version_;
    return {data_.data(), data_.size()};
  }
  /// Const overload of flat().
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  // Element access is the hottest path in the library; bounds checks are
  // debug-tier (on in Debug and sanitizer presets, compiled out in Release).
  float& operator[](std::size_t i) {
    CIP_DCHECK_LT(i, data_.size());
    ++version_;
    return data_[i];
  }
  float operator[](std::size_t i) const {
    CIP_DCHECK_LT(i, data_.size());
    return data_[i];
  }

  /// 2-D element access (row-major). Only valid for rank-2 tensors.
  float& At(std::size_t r, std::size_t c) {
    CIP_DCHECK_EQ(rank(), 2u);
    CIP_DCHECK_LT(r, shape_[0]);
    CIP_DCHECK_LT(c, shape_[1]);
    ++version_;
    return data_[r * shape_[1] + c];
  }
  /// Const overload of At(r, c).
  float At(std::size_t r, std::size_t c) const {
    CIP_DCHECK_EQ(rank(), 2u);
    CIP_DCHECK_LT(r, shape_[0]);
    CIP_DCHECK_LT(c, shape_[1]);
    return data_[r * shape_[1] + c];
  }

  /// Reinterpret with a new shape of equal element count.
  Tensor Reshaped(Shape new_shape) const {
    CIP_CHECK_EQ(NumElements(new_shape), size());
    return Tensor(std::move(new_shape), data_);
  }

  /// Row `i` of a rank>=2 tensor viewed as [dim0, rest]: copies the slice
  /// into a tensor of shape shape()[1..].
  Tensor Row(std::size_t i) const;

  /// Batch slice [lo, hi) along dim 0 (copying).
  Tensor Slice(std::size_t lo, std::size_t hi) const;

  /// Reshape in place, reusing the element buffer's capacity: counts as an
  /// allocation only when the new element count exceeds the current
  /// capacity. Contents are unspecified after a size change (new elements
  /// are zero, surviving prefix elements keep their values); the version is
  /// bumped unconditionally. This is what lets a shrink-then-grow cycle
  /// (e.g. a serving arena sized per batch) stay allocation-free.
  void Resize(Shape shape) {
    CIP_CHECK(!shape.empty());
    const std::size_t n = NumElements(shape);
    if (n > data_.capacity()) internal::BumpTensorAllocCount();
    // CIP_ANALYZE_OK(hot-alloc-container): the sanctioned grow-once primitive — reuses capacity once warm; hot-path steady state is pinned dynamically by tests/test_alloc_free.cpp
    data_.resize(n);
    shape_ = std::move(shape);
    ++version_;
  }

  /// Set every element to `v`.
  void Fill(float v) {
    ++version_;
    std::fill(data_.begin(), data_.end(), v);
  }
  /// Set every element to zero (shape unchanged).
  void Zero() { Fill(0.0f); }

  /// True iff shapes are identical (same rank and extents).
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
  std::uint64_t version_ = 0;
};

/// Reshape `t` only when the wanted shape differs — the scratch-reuse idiom
/// that keeps steady-state hot paths allocation-free (grow once, reuse
/// forever). Built on Tensor::Resize, so a shape change that fits in the
/// existing capacity reuses the buffer instead of reallocating; only growth
/// past capacity counts as an allocation. Contents are unspecified after a
/// reshape; unchanged otherwise.
inline void EnsureShape(Tensor& t, Shape shape) {
  if (t.shape() != shape) t.Resize(std::move(shape));
}

}  // namespace cip
