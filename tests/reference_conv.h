// Reference 2-D convolution: direct six-nested-loop forward and backward over
// NCHW tensors with stride and symmetric zero padding. This is the oracle
// nn::Conv2d's im2col + GEMM implementation is held to within 1e-5
// (tests/test_conv_parity.cpp) and the baseline bench/bench_micro_ops.cpp
// measures it against. Header-only and outside src/: no production path
// calls it.
#pragma once

#include <cstddef>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/tensor.h"

namespace cip::testing {

/// Spatial output extent of a k×k convolution: (in + 2·pad − k)/stride + 1.
inline std::size_t ReferenceConvExtent(std::size_t in, std::size_t k,
                                       std::size_t stride, std::size_t pad) {
  CIP_CHECK_GE(in + 2 * pad, k);
  return (in + 2 * pad - k) / stride + 1;
}

/// x: [N, C, H, W], w: [OC, C·k·k], b: [OC] -> [N, OC, OH, OW]. Samples run
/// on ParallelFor, like the layer's own lowering.
inline Tensor ReferenceConvForward(const Tensor& x, const Tensor& w,
                                   const Tensor& b, std::size_t k,
                                   std::size_t stride, std::size_t pad) {
  const std::size_t n = x.dim(0), ic = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::size_t oc = w.dim(0);
  CIP_CHECK_EQ(w.dim(1), ic * k * k);
  CIP_CHECK_EQ(b.size(), oc);
  const std::size_t oh = ReferenceConvExtent(h, k, stride, pad);
  const std::size_t ow = ReferenceConvExtent(wd, k, stride, pad);
  Tensor y({n, oc, oh, ow});
  const float* pw = w.data();
  const float* pb = b.data();
  const float* px_all = x.data();
  float* py_all = y.data();
  ParallelFor(0, n, [&](std::size_t i) {
    const float* px = px_all + i * ic * h * wd;
    float* py = py_all + i * oc * oh * ow;
    for (std::size_t co = 0; co < oc; ++co) {
      const float* wrow = pw + co * ic * k * k;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = pb[co];
          for (std::size_t c = 0; c < ic; ++c) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              const long iy = static_cast<long>(oy * stride + ky) -
                              static_cast<long>(pad);
              if (iy < 0 || iy >= static_cast<long>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const long ix = static_cast<long>(ox * stride + kx) -
                                static_cast<long>(pad);
                if (ix < 0 || ix >= static_cast<long>(wd)) continue;
                acc += px[c * h * wd + static_cast<std::size_t>(iy) * wd +
                          static_cast<std::size_t>(ix)] *
                       wrow[c * k * k + ky * k + kx];
              }
            }
          }
          py[co * oh * ow + oy * ow + ox] = acc;
        }
      }
    }
  });
  return y;
}

/// Backward of ReferenceConvForward for grad_out [N, OC, OH, OW]: returns dX
/// [N, C, H, W] and accumulates into dw [OC, C·k·k] and db [OC], the way a
/// layer accumulates into its parameter gradients. Serial on purpose: dw/db
/// accumulate across every sample and output position.
inline Tensor ReferenceConvBackward(const Tensor& x, const Tensor& w,
                                    const Tensor& grad_out, std::size_t k,
                                    std::size_t stride, std::size_t pad,
                                    Tensor& dw, Tensor& db) {
  const std::size_t n = x.dim(0), ic = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const std::size_t oc = w.dim(0);
  const std::size_t oh = ReferenceConvExtent(h, k, stride, pad);
  const std::size_t ow = ReferenceConvExtent(wd, k, stride, pad);
  CIP_CHECK_EQ(grad_out.size(), n * oc * oh * ow);
  CIP_CHECK(dw.SameShape(w));
  CIP_CHECK_EQ(db.size(), oc);
  Tensor dx({n, ic, h, wd});
  const float* pw = w.data();
  float* pdw = dw.data();
  float* pdb = db.data();
  for (std::size_t i = 0; i < n; ++i) {
    const float* px = x.data() + i * ic * h * wd;
    const float* pg = grad_out.data() + i * oc * oh * ow;
    float* pdx = dx.data() + i * ic * h * wd;
    for (std::size_t co = 0; co < oc; ++co) {
      const float* wrow = pw + co * ic * k * k;
      float* dwrow = pdw + co * ic * k * k;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = pg[co * oh * ow + oy * ow + ox];
          pdb[co] += g;
          if (g == 0.0f) continue;
          for (std::size_t c = 0; c < ic; ++c) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              const long iy = static_cast<long>(oy * stride + ky) -
                              static_cast<long>(pad);
              if (iy < 0 || iy >= static_cast<long>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const long ix = static_cast<long>(ox * stride + kx) -
                                static_cast<long>(pad);
                if (ix < 0 || ix >= static_cast<long>(wd)) continue;
                const std::size_t xi = c * h * wd +
                                       static_cast<std::size_t>(iy) * wd +
                                       static_cast<std::size_t>(ix);
                const std::size_t wi = c * k * k + ky * k + kx;
                dwrow[wi] += g * px[xi];
                pdx[xi] += g * wrow[wi];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

}  // namespace cip::testing
