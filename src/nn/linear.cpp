#include "nn/linear.h"

#include <utility>

#include "nn/init.h"
#include "tensor/ops.h"

namespace cip::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               std::string name)
    : in_(in_features),
      out_(out_features),
      name_(std::move(name)),
      w_(name_ + ".w", Tensor({out_features, in_features}), in_features),
      b_(name_ + ".b", Tensor({out_features})) {
  CIP_CHECK_GT(in_, 0u);
  CIP_CHECK_GT(out_, 0u);
}

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string name)
    : Linear(in_features, out_features, std::move(name)) {
  HeInit(Parameters(), rng);
}

// CIP_HOT  (eval linear forward: one output allocation, zero scratch)
Tensor Linear::Forward(const Tensor& x, bool train) {
  // CIP_ANALYZE_OK(hot-alloc-tensor): the returned output - the one allocation eval forward permits (test_alloc_free)
  Tensor y;
  ForwardInto(x, y);
  // CIP_ANALYZE_OK(hot-alloc-container): train-only branch: eval (train=false) never reaches this push
  if (train) cached_inputs_.push(x);
  return y;
}

// CIP_HOT  (serve-path linear forward: zero allocations once scratch is warm)
const Tensor& Linear::EvalForward(const Tensor& x) {
  ForwardInto(x, eval_out_);
  return eval_out_;
}

// CIP_HOT  (serve-path linear core: writes into caller-owned output scratch)
void Linear::ForwardInto(const Tensor& x, Tensor& y) {
  CIP_CHECK_EQ(x.rank(), 2u);
  CIP_CHECK_EQ(x.dim(1), in_);
  const std::size_t n = x.dim(0);
  EnsureShape(y, {n, out_});
  if (ops::internal::UsesBlockedGemm(n, in_, out_)) {
    // Blocked regime: multiply against the cached pre-packed weight, repacking
    // only when the weight actually changed (optimizer steps bump version()).
    // Bit-identical to MatmulTransBInto, which packs the same panels per call.
    if (packed_w_.empty() || packed_w_version_ != w_.value.version() ||
        packed_w_.isa() != ops::ActiveGemmIsa()) {
      ops::PackBForMatmulTransBInto(w_.value, packed_w_);
      packed_w_version_ = w_.value.version();
    }
    ops::MatmulPackedInto(x, packed_w_, y);  // [N, out]
  } else {
    ops::MatmulTransBInto(x, w_.value, y);  // [N, out]
  }
  CIP_DCHECK_EQ(b_.value.size(), out_);
  const float* pb = std::as_const(b_.value).data();
  float* py = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    float* row = py + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += pb[j];
  }
}

Tensor Linear::Backward(const Tensor& grad_out, ParamGrads mode) {
  CIP_CHECK_MSG(!cached_inputs_.empty(), name_ << ": backward without forward");
  const Tensor x = std::move(cached_inputs_.top());
  cached_inputs_.pop();
  CIP_CHECK_EQ(grad_out.rank(), 2u);
  CIP_CHECK_EQ(grad_out.dim(0), x.dim(0));
  CIP_CHECK_EQ(grad_out.dim(1), out_);
  // dW = gradᵀ · x,  db = sum over batch,  dx = grad · W
  if (mode == ParamGrads::kAccumulate) {
    EnsureShape(dw_, {out_, in_});
    ops::MatmulTransAInto(grad_out, x, dw_);
    ops::AddInPlace(w_.grad, dw_);
    ops::SumRowsAccumInto(grad_out, b_.grad);
  }
  Tensor dx({x.dim(0), in_});
  ops::MatmulInto(grad_out, w_.value, dx);
  return dx;
}

void Linear::CollectParameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

void Linear::ClearCache() {
  while (!cached_inputs_.empty()) cached_inputs_.pop();
}

}  // namespace cip::nn
