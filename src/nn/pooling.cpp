#include "nn/pooling.h"

#include <algorithm>

#include "common/check.h"

namespace cip::nn {

namespace {

/// Average-pool one [C·H·W] plane set into [C·OH·OW]; shared by Forward and
/// EvalForward so the two paths are the same arithmetic (bit-identity).
void AvgPoolInto(const float* px_all, float* py_all, std::size_t planes,
                 std::size_t h, std::size_t w, std::size_t window) {
  const std::size_t oh = h / window, ow = w / window;
  const float inv = 1.0f / static_cast<float>(window * window);
  for (std::size_t i = 0; i < planes; ++i) {
    const float* px = px_all + i * h * w;
    float* py = py_all + i * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float s = 0.0f;
        for (std::size_t ky = 0; ky < window; ++ky) {
          for (std::size_t kx = 0; kx < window; ++kx) {
            s += px[(oy * window + ky) * w + ox * window + kx];
          }
        }
        py[oy * ow + ox] = s * inv;
      }
    }
  }
}

/// Max-pool one plane set; records the winning flat index per output element
/// into `argmax` when non-null (training needs it for Backward).
void MaxPoolInto(const float* px_all, float* py_all, std::size_t* argmax,
                 std::size_t planes, std::size_t h, std::size_t w,
                 std::size_t window) {
  const std::size_t oh = h / window, ow = w / window;
  for (std::size_t i = 0; i < planes; ++i) {
    const float* px = px_all + i * h * w;
    float* py = py_all + i * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = px[(oy * window) * w + ox * window];
        std::size_t best_idx = (oy * window) * w + ox * window;
        for (std::size_t ky = 0; ky < window; ++ky) {
          for (std::size_t kx = 0; kx < window; ++kx) {
            const std::size_t idx = (oy * window + ky) * w + ox * window + kx;
            if (px[idx] > best) {
              best = px[idx];
              best_idx = idx;
            }
          }
        }
        py[oy * ow + ox] = best;
        if (argmax != nullptr) argmax[i * oh * ow + oy * ow + ox] = best_idx;
      }
    }
  }
}

/// Global-average one [C, HW] plane set into [C].
void GlobalAvgInto(const float* px_all, float* py, std::size_t planes,
                   std::size_t hw) {
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t i = 0; i < planes; ++i) {
    const float* px = px_all + i * hw;
    float s = 0.0f;
    for (std::size_t j = 0; j < hw; ++j) s += px[j];
    py[i] = s * inv;
  }
}

}  // namespace

AvgPool2d::AvgPool2d(std::size_t window, std::string name)
    : window_(window), name_(std::move(name)) {
  CIP_CHECK_GT(window_, 0u);
}

Tensor AvgPool2d::Forward(const Tensor& x, bool train) {
  CIP_CHECK_EQ(x.rank(), 4u);
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CIP_CHECK_EQ(h % window_, 0u);
  CIP_CHECK_EQ(w % window_, 0u);
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor y({n, c, oh, ow});
  AvgPoolInto(x.data(), y.data(), n * c, h, w, window_);
  if (train) cached_shapes_.push(x.shape());
  return y;
}

// CIP_HOT  (serve-path pooling: scratch-buffer reuse)
const Tensor& AvgPool2d::EvalForward(const Tensor& x) {
  CIP_CHECK_EQ(x.rank(), 4u);
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CIP_CHECK_EQ(h % window_, 0u);
  CIP_CHECK_EQ(w % window_, 0u);
  EnsureShape(eval_out_, {n, c, h / window_, w / window_});
  AvgPoolInto(x.data(), eval_out_.data(), n * c, h, w, window_);
  return eval_out_;
}

Tensor AvgPool2d::Backward(const Tensor& grad_out, ParamGrads /*mode*/) {
  CIP_CHECK_MSG(!cached_shapes_.empty(), name_ << ": backward without forward");
  const Shape in_shape = std::move(cached_shapes_.top());
  cached_shapes_.pop();
  const std::size_t n = in_shape[0], c = in_shape[1], h = in_shape[2],
                    w = in_shape[3];
  const std::size_t oh = h / window_, ow = w / window_;
  CIP_DCHECK_EQ(grad_out.size(), n * c * oh * ow);
  Tensor dx(in_shape);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* pg = grad_out.data() + i * oh * ow;
    float* pdx = dx.data() + i * h * w;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float g = pg[oy * ow + ox] * inv;
        for (std::size_t ky = 0; ky < window_; ++ky) {
          for (std::size_t kx = 0; kx < window_; ++kx) {
            pdx[(oy * window_ + ky) * w + ox * window_ + kx] += g;
          }
        }
      }
    }
  }
  return dx;
}

void AvgPool2d::ClearCache() {
  while (!cached_shapes_.empty()) cached_shapes_.pop();
}

MaxPool2d::MaxPool2d(std::size_t window, std::string name)
    : window_(window), name_(std::move(name)) {
  CIP_CHECK_GT(window_, 0u);
}

Tensor MaxPool2d::Forward(const Tensor& x, bool train) {
  CIP_CHECK_EQ(x.rank(), 4u);
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CIP_CHECK_EQ(h % window_, 0u);
  CIP_CHECK_EQ(w % window_, 0u);
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor y({n, c, oh, ow});
  Cache cache{x.shape(), std::vector<std::size_t>(n * c * oh * ow)};
  MaxPoolInto(x.data(), y.data(), cache.argmax.data(), n * c, h, w, window_);
  if (train) cache_.push(std::move(cache));
  return y;
}

// CIP_HOT  (serve-path pooling: scratch-buffer reuse, no argmax cache)
const Tensor& MaxPool2d::EvalForward(const Tensor& x) {
  CIP_CHECK_EQ(x.rank(), 4u);
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  CIP_CHECK_EQ(h % window_, 0u);
  CIP_CHECK_EQ(w % window_, 0u);
  EnsureShape(eval_out_, {n, c, h / window_, w / window_});
  MaxPoolInto(x.data(), eval_out_.data(), nullptr, n * c, h, w, window_);
  return eval_out_;
}

Tensor MaxPool2d::Backward(const Tensor& grad_out, ParamGrads /*mode*/) {
  CIP_CHECK_MSG(!cache_.empty(), name_ << ": backward without forward");
  Cache cache = std::move(cache_.top());
  cache_.pop();
  const std::size_t n = cache.in_shape[0], c = cache.in_shape[1],
                    h = cache.in_shape[2], w = cache.in_shape[3];
  const std::size_t oh = h / window_, ow = w / window_;
  CIP_DCHECK_EQ(grad_out.size(), n * c * oh * ow);
  CIP_DCHECK_EQ(cache.argmax.size(), n * c * oh * ow);
  Tensor dx(cache.in_shape);
  for (std::size_t i = 0; i < n * c; ++i) {
    const float* pg = grad_out.data() + i * oh * ow;
    float* pdx = dx.data() + i * h * w;
    for (std::size_t pos = 0; pos < oh * ow; ++pos) {
      CIP_DCHECK_LT(cache.argmax[i * oh * ow + pos], h * w);
      pdx[cache.argmax[i * oh * ow + pos]] += pg[pos];
    }
  }
  return dx;
}

void MaxPool2d::ClearCache() {
  while (!cache_.empty()) cache_.pop();
}

Tensor Flatten::Forward(const Tensor& x, bool train) {
  CIP_CHECK_GE(x.rank(), 2u);
  if (train) cached_shapes_.push(x.shape());
  const std::size_t n = x.dim(0);
  return x.Reshaped({n, x.size() / std::max<std::size_t>(n, 1)});
}

// CIP_HOT  (serve-path flatten: element copy into reused scratch)
const Tensor& Flatten::EvalForward(const Tensor& x) {
  CIP_CHECK_GE(x.rank(), 2u);
  const std::size_t n = x.dim(0);
  EnsureShape(eval_out_, {n, x.size() / std::max<std::size_t>(n, 1)});
  const float* px = x.data();
  std::copy(px, px + x.size(), eval_out_.data());
  return eval_out_;
}

Tensor Flatten::Backward(const Tensor& grad_out, ParamGrads /*mode*/) {
  CIP_CHECK_MSG(!cached_shapes_.empty(), name_ << ": backward without forward");
  const Shape in_shape = std::move(cached_shapes_.top());
  cached_shapes_.pop();
  return grad_out.Reshaped(in_shape);
}

void Flatten::ClearCache() {
  while (!cached_shapes_.empty()) cached_shapes_.pop();
}

Tensor GlobalAvgPool::Forward(const Tensor& x, bool train) {
  if (x.rank() == 2) {
    if (train) cached_shapes_.push(x.shape());
    return x;
  }
  CIP_CHECK_EQ(x.rank(), 4u);
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({n, c});
  GlobalAvgInto(x.data(), y.data(), n * c, hw);
  if (train) cached_shapes_.push(x.shape());
  return y;
}

// CIP_HOT  (serve-path pooling: rank-2 passthrough, rank-4 into scratch)
const Tensor& GlobalAvgPool::EvalForward(const Tensor& x) {
  if (x.rank() == 2) return x;
  CIP_CHECK_EQ(x.rank(), 4u);
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  EnsureShape(eval_out_, {n, c});
  GlobalAvgInto(x.data(), eval_out_.data(), n * c, hw);
  return eval_out_;
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_out, ParamGrads /*mode*/) {
  CIP_CHECK_MSG(!cached_shapes_.empty(), name_ << ": backward without forward");
  const Shape in_shape = std::move(cached_shapes_.top());
  cached_shapes_.pop();
  if (in_shape.size() == 2) return grad_out;
  const std::size_t n = in_shape[0], c = in_shape[1],
                    hw = in_shape[2] * in_shape[3];
  CIP_CHECK_EQ(grad_out.size(), n * c);
  Tensor dx(in_shape);
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t i = 0; i < n * c; ++i) {
    const float g = grad_out[i] * inv;
    float* pdx = dx.data() + i * hw;
    for (std::size_t j = 0; j < hw; ++j) pdx[j] = g;
  }
  return dx;
}

void GlobalAvgPool::ClearCache() {
  while (!cached_shapes_.empty()) cached_shapes_.pop();
}

}  // namespace cip::nn
