// Parity oracles for the convolution: nn::Conv2d's implicit GEMM must agree
// with the direct-loop reference in tests/reference_conv.h (forward, dX, dW,
// db) within 1e-5 across stride/padding/kernel edge cases, and bit for bit
// with the lowered im2col/GEMM composition in tests/lowered_conv.h; every
// Matmul variant must match a double-precision triple-loop reference. Runs
// under the asan/ubsan/tsan presets like every other test, so the blocked
// kernels are also checked for memory and threading bugs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/env.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "lowered_conv.h"
#include "reference_conv.h"
#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"

namespace cip {
namespace {

using testing::LoweredConvBackward;
using testing::LoweredConvForward;
using testing::ReferenceConvBackward;
using testing::ReferenceConvForward;

Tensor RandomTensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal();
  return t;
}

void ExpectTensorsNear(const Tensor& a, const Tensor& b, double tol,
                       const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what << ": shape " << ShapeToString(a.shape())
                              << " vs " << ShapeToString(b.shape());
  double worst = 0.0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scaled =
        std::abs(a[i] - b[i]) / (1.0 + std::abs(static_cast<double>(b[i])));
    if (scaled > worst) {
      worst = scaled;
      worst_i = i;
    }
  }
  EXPECT_LE(worst, tol) << what << ": worst mismatch at flat index " << worst_i
                        << ": " << a[worst_i] << " vs " << b[worst_i];
}

struct ConvCase {
  std::size_t n, ic, oc, k, stride, pad, h, w;
};

// Odd shapes on purpose: 1×1 kernels, single-pixel inputs, strides that do
// not divide the extent, padding larger than stride, non-square images, an
// even kernel, and one backbone-sized case.
const ConvCase kConvCases[] = {
    {2, 3, 4, 3, 1, 1, 8, 8},     // vanilla 3x3 same-conv
    {1, 1, 1, 1, 1, 0, 1, 1},     // single pixel through a 1x1
    {3, 2, 5, 1, 1, 0, 7, 5},     // 1x1 kernel, non-square image
    {2, 3, 2, 3, 2, 0, 9, 7},     // stride 2, no padding, odd extents
    {2, 2, 3, 3, 2, 1, 6, 6},     // stride 2 with padding
    {1, 4, 6, 5, 1, 2, 11, 9},    // 5x5 kernel, pad 2
    {2, 1, 2, 3, 3, 1, 10, 10},   // stride 3
    {1, 2, 2, 4, 2, 2, 4, 4},     // even kernel, pad == 2
    {1, 3, 2, 3, 1, 2, 3, 3},     // padding bigger than the image core
    {4, 3, 32, 3, 1, 1, 12, 12},  // backbone-sized
};

/// One Forward/Backward through the layer against the reference oracle on
/// the layer's own weights.
void ExpectConvMatchesReference(const ConvCase& c, double tol) {
  SCOPED_TRACE(::testing::Message()
               << "n=" << c.n << " ic=" << c.ic << " oc=" << c.oc
               << " k=" << c.k << " s=" << c.stride << " p=" << c.pad
               << " h=" << c.h << " w=" << c.w);
  Rng rng(42);
  nn::Conv2d conv(c.ic, c.oc, c.k, c.stride, c.pad, rng, "conv");
  const Tensor& w = conv.Parameters()[0]->value;
  const Tensor& b = conv.Parameters()[1]->value;
  const Tensor x = RandomTensor({c.n, c.ic, c.h, c.w}, 7);
  const std::size_t oh = conv.OutExtent(c.h), ow = conv.OutExtent(c.w);
  const Tensor grad_out = RandomTensor({c.n, c.oc, oh, ow}, 8);

  const Tensor y = conv.Forward(x, /*train=*/true);
  const Tensor dx = conv.Backward(grad_out);

  const Tensor y_ref = ReferenceConvForward(x, w, b, c.k, c.stride, c.pad);
  Tensor dw_ref(w.shape()), db_ref(b.shape());
  const Tensor dx_ref = ReferenceConvBackward(x, w, grad_out, c.k, c.stride,
                                              c.pad, dw_ref, db_ref);

  ExpectTensorsNear(y, y_ref, tol, "forward");
  ExpectTensorsNear(dx, dx_ref, tol, "dX");
  ExpectTensorsNear(conv.Parameters()[0]->grad, dw_ref, tol, "dW");
  ExpectTensorsNear(conv.Parameters()[1]->grad, db_ref, tol, "db");
}

TEST(ConvParity, ForwardBackwardAgreeAcrossShapes) {
  for (const ConvCase& c : kConvCases) ExpectConvMatchesReference(c, 1e-5);
}

// The dual-channel model runs forward(ch1), forward(ch2), backward(ch2),
// backward(ch1) on one shared backbone. Backward must work from the popped
// input alone, never from whatever the last forward left in scratch, so the
// second backward must still match the reference.
TEST(ConvParity, DoubleForwardLifoBackwardMatchesNaive) {
  Rng rng(11);
  nn::Conv2d conv(3, 4, 3, 1, 1, rng, "conv");
  const Tensor& w = conv.Parameters()[0]->value;
  const Tensor x1 = RandomTensor({2, 3, 6, 6}, 1);
  const Tensor x2 = RandomTensor({2, 3, 6, 6}, 2);
  const Tensor g1 = RandomTensor({2, 4, 6, 6}, 3);
  const Tensor g2 = RandomTensor({2, 4, 6, 6}, 4);

  conv.Forward(x1, true);
  conv.Forward(x2, true);
  const Tensor dx2 = conv.Backward(g2);
  const Tensor dx1 = conv.Backward(g1);

  Tensor dw_ref(w.shape()), db_ref({4});
  const Tensor dx2_ref = ReferenceConvBackward(x2, w, g2, 3, 1, 1, dw_ref,
                                               db_ref);
  const Tensor dx1_ref = ReferenceConvBackward(x1, w, g1, 3, 1, 1, dw_ref,
                                               db_ref);
  ExpectTensorsNear(dx2, dx2_ref, 1e-5, "dX ch2");
  ExpectTensorsNear(dx1, dx1_ref, 1e-5, "dX ch1");
  ExpectTensorsNear(conv.Parameters()[0]->grad, dw_ref, 1e-5,
                    "dW both channels");
}

// <Im2Col(x), c> == <x, Col2Im(c)>: the lowering and its scatter-add are
// exact adjoints, which is what makes the GEMM backward correct.
TEST(ConvParity, Im2ColCol2ImAreAdjoint) {
  const ops::Conv2dGeom g{3, 7, 5, 3, 2, 1};
  const Tensor x = RandomTensor({2, 3, 7, 5}, 21);
  const Tensor c = RandomTensor({g.OutH() * g.OutW(), g.PatchSize()}, 22);
  for (std::size_t i = 0; i < 2; ++i) {
    const Tensor col = ops::Im2Col(x, i, g);
    Tensor back({2, 3, 7, 5});
    ops::Col2ImInto(c, 0, g, back, i);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t j = 0; j < col.size(); ++j) lhs += col[j] * c[j];
    for (std::size_t j = 0; j < x.size(); ++j) rhs += x[j] * back[j];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(rhs)));
  }
}

// ---- Matmul vs double-precision reference oracle ---------------------------

Tensor RefMatmul(const Tensor& a, const Tensor& b, bool trans_a,
                 bool trans_b) {
  const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::size_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        s += static_cast<double>(av) * bv;
      }
      c[i * n + j] = static_cast<float>(s);
    }
  }
  return c;
}

struct MatmulCase {
  std::size_t m, k, n;
};

// Sizes straddle the blocked-kernel threshold and every tile tail:
// m % 4, n % 8, k % 256 all nonzero somewhere.
const MatmulCase kMatmulCases[] = {
    {1, 1, 1}, {3, 5, 2},   {4, 8, 8},    {17, 33, 9},
    {33, 17, 40}, {64, 64, 64}, {65, 31, 70}, {128, 300, 12},
};

TEST(MatmulOracle, AllVariantsMatchDoubleReference) {
  for (const MatmulCase& mc : kMatmulCases) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << mc.m << " k=" << mc.k << " n=" << mc.n);
    const Tensor a = RandomTensor({mc.m, mc.k}, 100 + mc.m);
    const Tensor b = RandomTensor({mc.k, mc.n}, 200 + mc.n);
    const Tensor bt = RandomTensor({mc.n, mc.k}, 300 + mc.n);
    const Tensor at = RandomTensor({mc.k, mc.m}, 400 + mc.m);

    ExpectTensorsNear(ops::Matmul(a, b), RefMatmul(a, b, false, false), 1e-5,
                      "Matmul");
    ExpectTensorsNear(ops::MatmulTransB(a, bt), RefMatmul(a, bt, false, true),
                      1e-5, "MatmulTransB");
    ExpectTensorsNear(ops::MatmulTransA(at, b), RefMatmul(at, b, true, false),
                      1e-5, "MatmulTransA");

    // Into variants write the same values into caller-owned scratch.
    Tensor c({mc.m, mc.n}, /*fill=*/123.0f);
    ops::MatmulInto(a, b, c);
    ExpectTensorsNear(c, RefMatmul(a, b, false, false), 1e-5, "MatmulInto");
    c.Fill(-7.0f);
    ops::MatmulTransBInto(a, bt, c);
    ExpectTensorsNear(c, RefMatmul(a, bt, false, true), 1e-5,
                      "MatmulTransBInto");
    c.Fill(0.25f);
    ops::MatmulTransAInto(at, b, c);
    ExpectTensorsNear(c, RefMatmul(at, b, true, false), 1e-5,
                      "MatmulTransAInto");
  }
}

TEST(MatmulOracle, ShapeMismatchThrows) {
  const Tensor a = RandomTensor({4, 5}, 1);
  const Tensor b = RandomTensor({6, 7}, 2);
  EXPECT_THROW(ops::Matmul(a, b), CheckError);
  Tensor c({4, 7});
  EXPECT_THROW(ops::MatmulInto(a, b, c), CheckError);
  Tensor wrong({3, 3});
  const Tensor b_ok = RandomTensor({5, 7}, 3);
  EXPECT_THROW(ops::MatmulInto(a, b_ok, wrong), CheckError);
}

// ---- per-ISA parity --------------------------------------------------------

/// Forces one CIP_ISA request and rebinds the registry; restores auto on
/// scope exit (see tests/test_cpu_features.cpp for the dispatcher's own
/// tests — this file only pins reference-vs-kernel parity per ISA).
class IsaGuard {
 public:
  explicit IsaGuard(IsaRequest request) {
    internal::SetIsaRequestForTesting(request);
    ops::internal::ResetGemmBindingForTesting();
  }
  ~IsaGuard() {
    internal::SetIsaRequestForTesting(IsaRequest::kAuto);
    ops::internal::ResetGemmBindingForTesting();
  }
};

std::vector<IsaRequest> UsableRequests() {
  std::vector<IsaRequest> reqs{IsaRequest::kPortable};
  const CpuFeatures& f = GetCpuFeatures();
  if (IsaSupported(IsaLevel::kAvx2, f) &&
      ops::internal::Avx2GemmKernel() != nullptr) {
    reqs.push_back(IsaRequest::kAvx2);
  }
  if (IsaSupported(IsaLevel::kAvx512, f) &&
      ops::internal::Avx512GemmKernel() != nullptr) {
    reqs.push_back(IsaRequest::kAvx512);
  }
  return reqs;
}

/// Pinned reference-vs-kernel tolerance per ISA. One bound for all current
/// kernels (FMA contraction only tightens rounding), pinned per ISA so a
/// future kernel cannot silently widen the shared bound.
double PinnedConvTolerance(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kAvx512:
      return 1e-5;
    case IsaLevel::kAvx2:
      return 1e-5;
    case IsaLevel::kPortable:
      break;
  }
  return 1e-5;
}

TEST(ConvParity, ForwardBackwardAgreeAcrossIsas) {
  // Backbone-sized case (the GEMM is big enough to take the blocked kernel)
  // plus a tail-heavy case, reference-vs-kernel per usable ISA.
  const ConvCase kIsaCases[] = {
      {4, 3, 32, 3, 1, 1, 12, 12},
      {2, 3, 2, 3, 2, 0, 9, 7},
  };
  for (const IsaRequest req : UsableRequests()) {
    IsaGuard isa_guard(req);
    const double tol = PinnedConvTolerance(ops::ActiveGemmIsa());
    SCOPED_TRACE(::testing::Message()
                 << "isa=" << IsaName(ops::ActiveGemmIsa()));
    for (const ConvCase& c : kIsaCases) ExpectConvMatchesReference(c, tol);
  }
}

// ---- bitwise parity with the lowered GEMM -----------------------------------

void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.SameShape(want)) << what << ": shape "
                                   << ShapeToString(got.shape()) << " vs "
                                   << ShapeToString(want.shape());
  const float* pg = std::as_const(got).data();
  const float* pw = std::as_const(want).data();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(pg + i, pw + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first differing bits at flat index " << i
                    << ": " << pg[i] << " vs " << pw[i];
      return;
    }
  }
}

/// A LIFO double forward (the dual-channel model's order) and its two
/// backwards in `mode`, against the lowered oracle on the layer's weights,
/// compared byte for byte. The first input carries +inf, -inf and NaN, and
/// both gradients start non-zero, so accumulation onto existing values and
/// non-finite propagation are pinned too.
void ExpectConvMatchesLoweredBitwise(const ConvCase& c, nn::ParamGrads mode) {
  SCOPED_TRACE(::testing::Message()
               << "n=" << c.n << " ic=" << c.ic << " oc=" << c.oc
               << " k=" << c.k << " s=" << c.stride << " p=" << c.pad
               << " h=" << c.h << " w=" << c.w << " mode="
               << (mode == nn::ParamGrads::kAccumulate ? "accumulate"
                                                       : "skip"));
  Rng rng(42);
  nn::Conv2d conv(c.ic, c.oc, c.k, c.stride, c.pad, rng, "conv");
  nn::Parameter& wp = *conv.Parameters()[0];
  nn::Parameter& bp = *conv.Parameters()[1];
  wp.grad = RandomTensor(wp.value.shape(), 5);
  bp.grad = RandomTensor(bp.value.shape(), 6);
  Tensor dw_ref = wp.grad, db_ref = bp.grad;

  Tensor x1 = RandomTensor({c.n, c.ic, c.h, c.w}, 7);
  x1[0] = std::numeric_limits<float>::infinity();
  x1[x1.size() / 2] = -std::numeric_limits<float>::infinity();
  x1[x1.size() - 1] = std::numeric_limits<float>::quiet_NaN();
  const Tensor x2 = RandomTensor({c.n, c.ic, c.h, c.w}, 9);
  const std::size_t oh = conv.OutExtent(c.h), ow = conv.OutExtent(c.w);
  const Tensor g1 = RandomTensor({c.n, c.oc, oh, ow}, 8);
  const Tensor g2 = RandomTensor({c.n, c.oc, oh, ow}, 10);

  const Tensor y1 = conv.Forward(x1, /*train=*/true);
  const Tensor y2 = conv.Forward(x2, /*train=*/true);
  const Tensor dx2 = conv.Backward(g2, mode);
  const Tensor dx1 = conv.Backward(g1, mode);

  const bool param_grads = mode == nn::ParamGrads::kAccumulate;
  const Tensor& w = wp.value;
  const Tensor& b = bp.value;
  ExpectSameBits(y1, LoweredConvForward(x1, w, b, c.k, c.stride, c.pad), "y1");
  ExpectSameBits(y2, LoweredConvForward(x2, w, b, c.k, c.stride, c.pad), "y2");
  ExpectSameBits(dx2,
                 LoweredConvBackward(x2, w, g2, c.k, c.stride, c.pad,
                                     param_grads, dw_ref, db_ref),
                 "dx2");
  ExpectSameBits(dx1,
                 LoweredConvBackward(x1, w, g1, c.k, c.stride, c.pad,
                                     param_grads, dw_ref, db_ref),
                 "dx1");
  ExpectSameBits(wp.grad, dw_ref, "dW");
  ExpectSameBits(bp.grad, db_ref, "db");
}

TEST(ConvParity, BitwiseMatchesLoweredGemm) {
  // Both GEMM regimes must be covered: the blocked FMA kernel and, below
  // UsesBlockedGemm's threshold (decided on the whole batch), the streaming
  // multiply-add loops.
  std::size_t blocked = 0, streaming = 0;
  for (const ConvCase& c : kConvCases) {
    const std::size_t oh = (c.h + 2 * c.pad - c.k) / c.stride + 1;
    const std::size_t ow = (c.w + 2 * c.pad - c.k) / c.stride + 1;
    const bool uses_blocked = ops::internal::UsesBlockedGemm(
        c.n * oh * ow, c.ic * c.k * c.k, c.oc);
    ++(uses_blocked ? blocked : streaming);
  }
  EXPECT_GT(blocked, 0u);
  EXPECT_GT(streaming, 0u);
  for (const IsaRequest req : UsableRequests()) {
    IsaGuard isa_guard(req);
    SCOPED_TRACE(::testing::Message()
                 << "isa=" << IsaName(ops::ActiveGemmIsa()));
    for (const ConvCase& c : kConvCases) {
      ExpectConvMatchesLoweredBitwise(c, nn::ParamGrads::kAccumulate);
      ExpectConvMatchesLoweredBitwise(c, nn::ParamGrads::kSkip);
    }
  }
}

}  // namespace
}  // namespace cip
