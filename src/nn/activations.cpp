#include "nn/activations.h"

#include "tensor/ops.h"

namespace cip::nn {

Tensor ReLU::Forward(const Tensor& x, bool train) {
  Tensor y(x.shape());
  if (!train) {
    ops::ReluInto(x, y, nullptr);
    return y;
  }
  Tensor mask(x.shape());
  ops::ReluInto(x, y, &mask);
  cached_masks_.push(std::move(mask));
  return y;
}

// CIP_HOT  (serve-path activation: scratch-buffer reuse, no mask)
const Tensor& ReLU::EvalForward(const Tensor& x) {
  EnsureShape(eval_out_, x.shape());
  ops::ReluInto(x, eval_out_, nullptr);
  return eval_out_;
}

Tensor ReLU::Backward(const Tensor& grad_out, ParamGrads /*mode*/) {
  CIP_CHECK_MSG(!cached_masks_.empty(), name_ << ": backward without forward");
  Tensor mask = std::move(cached_masks_.top());
  cached_masks_.pop();
  return ops::Mul(grad_out, mask);
}

void ReLU::ClearCache() {
  while (!cached_masks_.empty()) cached_masks_.pop();
}

Dropout::Dropout(float rate, Rng& rng, std::string name)
    : rate_(rate), rng_(rng.Fork(0xD80)), name_(std::move(name)) {
  CIP_CHECK(rate_ >= 0.0f && rate_ < 1.0f);
}

Tensor Dropout::Forward(const Tensor& x, bool train) {
  if (!train || rate_ == 0.0f) return x;
  Tensor mask(x.shape());
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mask[i] = rng_.Bernoulli(keep) ? scale : 0.0f;
  }
  Tensor y = ops::Mul(x, mask);
  cached_masks_.push(std::move(mask));
  return y;
}

Tensor Dropout::Backward(const Tensor& grad_out, ParamGrads /*mode*/) {
  if (rate_ == 0.0f) return grad_out;
  CIP_CHECK_MSG(!cached_masks_.empty(), name_ << ": backward without forward");
  Tensor mask = std::move(cached_masks_.top());
  cached_masks_.pop();
  return ops::Mul(grad_out, mask);
}

void Dropout::ClearCache() {
  while (!cached_masks_.empty()) cached_masks_.pop();
}

}  // namespace cip::nn
