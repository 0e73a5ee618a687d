// Fully connected layer: y = x·Wᵀ + b, x: [N, in], W: [out, in], b: [out].
//
// Forward/Backward write into per-layer scratch tensors and (when the product
// is large enough for the blocked GEMM) multiply against a cached pre-packed
// weight, so steady-state calls allocate nothing beyond the returned tensor.
#pragma once

#include <stack>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace cip::nn {

class Linear : public Module {
 public:
  /// Zeroed W and b; W's He fan-in is in_features (nn/init.h HeInit).
  Linear(std::size_t in_features, std::size_t out_features,
         std::string name = "linear");
  /// The same layer with W drawn from `rng` now.
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string name = "linear");

  Tensor Forward(const Tensor& x, bool train) override;
  /// dx = grad·W; kAccumulate also adds dW = gradᵀ·x and db into .grad.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  /// Inference forward into the persistent eval buffer: same GEMM core as
  /// Forward (bit-identical), zero allocations once the scratch is warm.
  const Tensor& EvalForward(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

  /// Input feature dimension (columns of x).
  std::size_t in_features() const { return in_; }
  /// Output feature dimension (rows of W).
  std::size_t out_features() const { return out_; }
  /// Weight parameter W, shape [out_features, in_features].
  Parameter& weight() { return w_; }
  /// Bias parameter b, shape [out_features].
  Parameter& bias() { return b_; }

 private:
  /// Shared Forward/EvalForward core: y = x·Wᵀ + b into caller-owned scratch.
  void ForwardInto(const Tensor& x, Tensor& y);

  std::size_t in_;
  std::size_t out_;
  std::string name_;
  Parameter w_;
  Parameter b_;
  std::stack<Tensor> cached_inputs_;

  // Per-call weight gradient before accumulation into w_.grad; reused across
  // steps (reallocated only on batch-shape change).
  Tensor dw_;

  // Forward weight pre-packed for the blocked GEMM, rebuilt only when
  // w_.value.version() moves (i.e. after an optimizer step) or when the
  // bound GEMM ISA differs from the one it was packed for (per-ISA panel
  // layouts, docs/KERNELS.md).
  ops::PackedB packed_w_;
  std::uint64_t packed_w_version_ = 0;
};

}  // namespace cip::nn
