#include "nn/sequential.h"

#include "tensor/ops.h"

namespace cip::nn {

Tensor Sequential::Forward(const Tensor& x, bool train) {
  Tensor h = x;
  for (auto& child : children_) h = child->Forward(h, train);
  return h;
}

// CIP_HOT  (serve-path chain: children compute into their own scratch)
const Tensor& Sequential::EvalForward(const Tensor& x) {
  const Tensor* h = &x;
  for (auto& child : children_) h = &child->EvalForward(*h);
  return *h;
}

Tensor Sequential::Backward(const Tensor& grad_out, ParamGrads mode) {
  Tensor g = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    g = (*it)->Backward(g, mode);
  }
  return g;
}

void Sequential::CollectParameters(std::vector<Parameter*>& out) {
  for (auto& child : children_) child->CollectParameters(out);
}

void Sequential::ClearCache() {
  for (auto& child : children_) child->ClearCache();
}

Tensor Residual::Forward(const Tensor& x, bool train) {
  Tensor y = inner_->Forward(x, train);
  CIP_CHECK_MSG(y.SameShape(x),
                name_ << ": inner must preserve shape, got "
                      << ShapeToString(y.shape()) << " from "
                      << ShapeToString(x.shape()));
  ops::AddInPlace(y, x);
  return y;
}

// CIP_HOT  (serve-path residual: copy-assign reuses eval_out_'s capacity)
const Tensor& Residual::EvalForward(const Tensor& x) {
  eval_out_ = inner_->EvalForward(x);
  CIP_CHECK_MSG(eval_out_.SameShape(x),
                name_ << ": inner must preserve shape, got "
                      << ShapeToString(eval_out_.shape()) << " from "
                      << ShapeToString(x.shape()));
  ops::AddInPlace(eval_out_, x);
  return eval_out_;
}

Tensor Residual::Backward(const Tensor& grad_out, ParamGrads mode) {
  Tensor g = inner_->Backward(grad_out, mode);
  ops::AddInPlace(g, grad_out);  // shortcut path
  return g;
}

void Residual::CollectParameters(std::vector<Parameter*>& out) {
  inner_->CollectParameters(out);
}

void Residual::ClearCache() { inner_->ClearCache(); }

Tensor DenseConcat::Forward(const Tensor& x, bool train) {
  CIP_CHECK_EQ(x.rank(), 4u);
  Tensor y = inner_->Forward(x, train);
  CIP_CHECK_EQ(y.rank(), 4u);
  CIP_CHECK_EQ(y.dim(0), x.dim(0));
  CIP_CHECK_EQ(y.dim(2), x.dim(2));
  CIP_CHECK_EQ(y.dim(3), x.dim(3));
  const std::size_t n = x.dim(0), cx = x.dim(1), cy = y.dim(1),
                    hw = x.dim(2) * x.dim(3);
  Tensor out({n, cx + cy, x.dim(2), x.dim(3)});
  for (std::size_t i = 0; i < n; ++i) {
    float* po = out.data() + i * (cx + cy) * hw;
    const float* px = x.data() + i * cx * hw;
    const float* py = y.data() + i * cy * hw;
    std::copy(px, px + cx * hw, po);
    std::copy(py, py + cy * hw, po + cx * hw);
  }
  if (train) cached_channels_.push({cx, cy});
  return out;
}

// CIP_HOT  (serve-path dense block: channel concat into reused scratch)
const Tensor& DenseConcat::EvalForward(const Tensor& x) {
  CIP_CHECK_EQ(x.rank(), 4u);
  const Tensor& y = inner_->EvalForward(x);
  CIP_CHECK_EQ(y.rank(), 4u);
  CIP_CHECK_EQ(y.dim(0), x.dim(0));
  CIP_CHECK_EQ(y.dim(2), x.dim(2));
  CIP_CHECK_EQ(y.dim(3), x.dim(3));
  const std::size_t n = x.dim(0), cx = x.dim(1), cy = y.dim(1),
                    hw = x.dim(2) * x.dim(3);
  EnsureShape(eval_out_, {n, cx + cy, x.dim(2), x.dim(3)});
  float* po_all = eval_out_.data();
  const float* px_all = x.data();
  const float* py_all = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* po = po_all + i * (cx + cy) * hw;
    std::copy(px_all + i * cx * hw, px_all + (i + 1) * cx * hw, po);
    std::copy(py_all + i * cy * hw, py_all + (i + 1) * cy * hw, po + cx * hw);
  }
  return eval_out_;
}

Tensor DenseConcat::Backward(const Tensor& grad_out, ParamGrads mode) {
  CIP_CHECK_MSG(!cached_channels_.empty(),
                name_ << ": backward without forward");
  const auto [cx, cy] = cached_channels_.top();
  cached_channels_.pop();
  CIP_CHECK_EQ(grad_out.dim(1), cx + cy);
  const std::size_t n = grad_out.dim(0),
                    hw = grad_out.dim(2) * grad_out.dim(3);
  Tensor gx({n, cx, grad_out.dim(2), grad_out.dim(3)});
  Tensor gy({n, cy, grad_out.dim(2), grad_out.dim(3)});
  for (std::size_t i = 0; i < n; ++i) {
    const float* pg = grad_out.data() + i * (cx + cy) * hw;
    std::copy(pg, pg + cx * hw, gx.data() + i * cx * hw);
    std::copy(pg + cx * hw, pg + (cx + cy) * hw, gy.data() + i * cy * hw);
  }
  Tensor g_inner = inner_->Backward(gy, mode);
  ops::AddInPlace(gx, g_inner);
  return gx;
}

void DenseConcat::CollectParameters(std::vector<Parameter*>& out) {
  inner_->CollectParameters(out);
}

void DenseConcat::ClearCache() {
  inner_->ClearCache();
  while (!cached_channels_.empty()) cached_channels_.pop();
}

}  // namespace cip::nn
