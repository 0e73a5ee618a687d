// 2-D convolution over NCHW ([N, C, H, W]) tensors with stride and symmetric
// zero padding.
//
// The whole batch is lowered with ops::Im2ColInto into a per-layer scratch
// matrix, the convolution runs as one cache-blocked GEMM
// (ops::MatmulTransBInto against the [OC, C·K·K] weight), and the backward
// pass reuses the same lowering for dW (MatmulTransA), dX (Matmul + Col2Im)
// and db; an input-gradient-only backward (ParamGrads::kSkip) runs dX alone.
// Scratch buffers are layer members reused across steps — steady-state
// training does no per-call allocation beyond the returned output tensor.
// tests/test_conv_parity.cpp holds forward and backward to a direct-loop
// reference (tests/reference_conv.h) within 1e-5.
//
// Threading: Forward/Backward parallelize internally with ParallelFor
// (samples for the lowering/scatter, row blocks inside the GEMM). A Conv2d
// instance is NOT safe to call from two threads at once — the activation
// stack and the scratch buffers are per-instance state. Distinct instances
// are independent.
#pragma once

#include <stack>

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace cip::nn {

class Conv2d : public Module {
 public:
  /// Weight layout is [out_channels, in_channels·kernel·kernel] (He-normal
  /// initialized), bias is [out_channels]. Requires kernel, stride >= 1.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng, std::string name = "conv");

  /// x: [N, in_channels, H, W] -> [N, out_channels, OutH, OutW]. When
  /// `train`, pushes x on the activation stack for the matching Backward.
  Tensor Forward(const Tensor& x, bool train) override;
  /// grad_out: [N, out_channels, OutH, OutW] -> gradient w.r.t. the matching
  /// Forward's input. kAccumulate also adds db, and dW from a recomputed
  /// lowering, into the .grad tensors; kSkip runs only the dX GEMM + col2im.
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

  Tensor ForwardGemm(const Tensor& x, std::size_t n, std::size_t oh,
                     std::size_t ow);
  void ForwardGemmInto(const Tensor& x, std::size_t n, std::size_t oh,
                       std::size_t ow, Tensor& y);
  Tensor BackwardGemm(const Tensor& x, const Tensor& grad_out,
                      ParamGrads mode);

  std::size_t ic_, oc_, k_, stride_, pad_;
  std::string name_;
  Parameter w_;  // [OC, IC*K*K]
  Parameter b_;  // [OC]
  std::stack<Tensor> cached_inputs_;

  // Scratch, reused across steps (reallocated only on shape
  // change). col_: [N·OH·OW, IC·K·K] batched im2col; gemm_y_: [N·OH·OW, OC]
  // forward product; gy_: [N·OH·OW, OC] grad_out in row-major GEMM layout;
  // dcol_: [N·OH·OW, IC·K·K] column-space input gradient; dw_: [OC, IC·K·K]
  // per-call weight gradient before accumulation.
  Tensor col_, gemm_y_, gy_, dcol_, dw_;

  // Forward weight pre-packed for the blocked GEMM, rebuilt only when
  // w_.value.version() moves (i.e. after an optimizer step) or when the
  // bound GEMM ISA differs from the one it was packed for (panel layouts
  // are per-ISA, docs/KERNELS.md). Keeps the steady-state eval forward
  // free of the per-call packing pass.
  ops::PackedB packed_w_;
  std::uint64_t packed_w_version_ = 0;
};

}  // namespace cip::nn
