// 2-D convolution over NCHW ([N, C, H, W]) tensors with stride and symmetric
// zero padding.
//
// Every pass is a per-sample implicit GEMM in channel-major orientation on
// the bound GEMM kernel (ops::ActiveGemmKernel().gemm_rows): the sample is
// zero-padded once into a thread-local arena and the kernel's nr-wide B
// panels are filled straight from it, so no im2col matrix is ever built.
//   forward  y  = W[OC, C·K·K] · taps[C·K·K, grid], cropped to NCHW + bias
//   dX          = Wᵀ · grad-grid, scattered back tap by tap (descending taps)
//   dW, db      = gradᵀ · taps over the whole batch, one column panel of dW
//                 per GEMM call; bias sums straight onto db
// An input-gradient-only backward (ParamGrads::kSkip) runs dX alone. Every
// result is bit-identical to the im2col lowering run through Matmul*Into
// (tests/test_conv_parity.cpp holds them memcmp-equal, and within 1e-5 of
// the direct-loop reference in tests/reference_conv.h); docs/KERNELS.md
// ("Packing layout") has the argument. Products below the blocked-GEMM
// threshold take the streaming multiply-add loop, as Matmul*Into does.
//
// Scratch lives in per-thread grow-once arenas, not in the layer: steady-
// state calls allocate only the tensors they return (output, dx) and the
// cached training input.
//
// Threading: Forward/Backward parallelize internally with ParallelFor
// (samples for forward and dX, dW column panels). A Conv2d instance is NOT
// safe to call from two threads at once — the activation stack is
// per-instance state. Distinct instances are independent.
#pragma once

#include <stack>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace cip::nn {

class Conv2d : public Module {
 public:
  /// Weight layout is [out_channels, in_channels·kernel·kernel], bias is
  /// [out_channels], both zeroed; W's He fan-in is in_channels·kernel·kernel
  /// (nn/init.h HeInit). Requires kernel, stride >= 1.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         std::string name = "conv");
  /// The same layer with W drawn from `rng` now.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng, std::string name = "conv");

  /// x: [N, in_channels, H, W] -> [N, out_channels, OutH, OutW]. When
  /// `train`, pushes x on the activation stack for the matching Backward.
  Tensor Forward(const Tensor& x, bool train) override;
  /// grad_out: [N, out_channels, OutH, OutW] -> gradient w.r.t. the matching
  /// Forward's input. kAccumulate also adds db and dW into the .grad
  /// tensors; kSkip runs only the dX GEMMs and scatter.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  /// Inference forward into the persistent eval buffer: same GEMM core as
  /// Forward (bit-identical), zero allocations once the scratch is warm.
  const Tensor& EvalForward(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

  /// Number of output channels (rows of the [OC, C·K·K] weight matrix).
  std::size_t out_channels() const { return oc_; }

  /// Spatial output size for an input extent: (in + 2·pad − K)/stride + 1.
  std::size_t OutExtent(std::size_t in) const {
    CIP_CHECK_GE(in + 2 * pad_, k_);
    return (in + 2 * pad_ - k_) / stride_ + 1;
  }

 private:
  /// Conv geometry for an input of spatial size h × w.
  ops::Conv2dGeom Geom(std::size_t h, std::size_t w) const {
    return {ic_, h, w, k_, stride_, pad_};
  }

  Tensor ForwardGemm(const Tensor& x);
  void ForwardGemmInto(const Tensor& x, Tensor& y);
  void AccumulateParamGrads(const Tensor& x, const Tensor& grad_out,
                            const ops::Conv2dGeom& g, bool blocked);
  Tensor InputGrad(const Tensor& grad_out, const ops::Conv2dGeom& g,
                   bool blocked);

  std::size_t ic_, oc_, k_, stride_, pad_;
  std::string name_;
  Parameter w_;  // [OC, IC*K*K]
  Parameter b_;  // [OC]
  std::stack<Tensor> cached_inputs_;
};

namespace internal {

/// Capacity in bytes of the calling thread's conv scratch arena (grow-once /
/// reuse-forever, like ops::internal::GemmArenaBytes). Test hook: stable
/// across steady-state calls once warmed up.
std::size_t ConvArenaBytes();

}  // namespace internal

}  // namespace cip::nn
