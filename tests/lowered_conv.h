// Lowered-GEMM convolution oracle: the batched im2col → GEMM → col2im
// composition, built from the public ops (Im2ColInto, Col2ImInto,
// Matmul*Into, SumRowsAccumInto). nn::Conv2d's implicit GEMM must match it
// bit for bit (tests/test_conv_parity.cpp,
// ConvParity.BitwiseMatchesLoweredGemm): same products, same per-element
// accumulation order, same blocked/streaming regime per product.
// Header-only and outside src/: no production path calls it.
#pragma once

#include <cstddef>

#include "common/check.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace cip::testing {

/// The whole batch lowered to a [N·OH·OW, C·K·K] column matrix.
inline Tensor LoweredIm2Col(const Tensor& x, const ops::Conv2dGeom& g) {
  const std::size_t n = x.dim(0), plane = g.OutH() * g.OutW();
  Tensor col({n * plane, g.PatchSize()});
  for (std::size_t i = 0; i < n; ++i) ops::Im2ColInto(x, i, g, col, i * plane);
  return col;
}

/// x: [N, C, H, W], w: [OC, C·K·K], b: [OC] -> [N, OC, OH, OW]:
/// col · Wᵀ, then the [N·OH·OW, OC] product back to NCHW plus bias.
inline Tensor LoweredConvForward(const Tensor& x, const Tensor& w,
                                 const Tensor& b, std::size_t k,
                                 std::size_t stride, std::size_t pad) {
  const ops::Conv2dGeom g{x.dim(1), x.dim(2), x.dim(3), k, stride, pad};
  const std::size_t n = x.dim(0), oc = w.dim(0), plane = g.OutH() * g.OutW();
  const Tensor col = LoweredIm2Col(x, g);
  Tensor prod({n * plane, oc});
  ops::MatmulTransBInto(col, w, prod);
  Tensor y({n, oc, g.OutH(), g.OutW()});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t pos = 0; pos < plane; ++pos) {
      for (std::size_t c = 0; c < oc; ++c) {
        y[(i * oc + c) * plane + pos] = prod[(i * plane + pos) * oc + c] + b[c];
      }
    }
  }
  return y;
}

/// Backward for grad_out [N, OC, OH, OW]: returns dX = col2im(gy · W) and,
/// when `param_grads`, adds db (column sums of gy, straight onto db) and
/// dW = gyᵀ · col (then one add onto dw), gy being grad_out as
/// [N·OH·OW, OC].
inline Tensor LoweredConvBackward(const Tensor& x, const Tensor& w,
                                  const Tensor& grad_out, std::size_t k,
                                  std::size_t stride, std::size_t pad,
                                  bool param_grads, Tensor& dw, Tensor& db) {
  const ops::Conv2dGeom g{x.dim(1), x.dim(2), x.dim(3), k, stride, pad};
  const std::size_t n = x.dim(0), oc = w.dim(0), plane = g.OutH() * g.OutW();
  CIP_CHECK_EQ(grad_out.size(), n * oc * plane);
  Tensor gy({n * plane, oc});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < oc; ++c) {
      for (std::size_t pos = 0; pos < plane; ++pos) {
        gy[(i * plane + pos) * oc + c] = grad_out[(i * oc + c) * plane + pos];
      }
    }
  }
  if (param_grads) {
    ops::SumRowsAccumInto(gy, db);
    const Tensor col = LoweredIm2Col(x, g);
    Tensor dw_step(w.shape());
    ops::MatmulTransAInto(gy, col, dw_step);
    ops::AddInPlace(dw, dw_step);
  }
  Tensor dcol({n * plane, g.PatchSize()});
  ops::MatmulInto(gy, w, dcol);
  Tensor dx(x.shape());
  for (std::size_t i = 0; i < n; ++i) ops::Col2ImInto(dcol, i * plane, g, dx, i);
  return dx;
}

}  // namespace cip::testing
