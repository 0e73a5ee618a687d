#include "nn/conv2d.h"

#include <utility>

#include "common/parallel.h"
#include "nn/init.h"

namespace cip::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng, std::string name)
    : ic_(in_channels),
      oc_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      name_(std::move(name)),
      w_(name_ + ".w", Tensor({out_channels, in_channels * kernel * kernel})),
      b_(name_ + ".b", Tensor({out_channels})) {
  CIP_CHECK_GT(ic_, 0u);
  CIP_CHECK_GT(oc_, 0u);
  CIP_CHECK_GT(k_, 0u);
  CIP_CHECK_GT(stride_, 0u);
  HeNormal(w_.value, ic_ * k_ * k_, rng);
}

// CIP_HOT  (eval conv forward: one output allocation, zero scratch)
Tensor Conv2d::ForwardGemm(const Tensor& x, std::size_t n, std::size_t oh,
                           std::size_t ow) {
  // CIP_ANALYZE_OK(hot-alloc-tensor): the returned output - the one allocation eval forward permits (test_alloc_free)
  Tensor y;
  ForwardGemmInto(x, n, oh, ow, y);
  return y;
}

// CIP_HOT  (serve-path conv core: writes into caller-owned output scratch)
void Conv2d::ForwardGemmInto(const Tensor& x, std::size_t n, std::size_t oh,
                             std::size_t ow, Tensor& y) {
  const std::size_t h = x.dim(2), w = x.dim(3);
  const ops::Conv2dGeom geom = Geom(h, w);
  const std::size_t rows = n * oh * ow;
  const std::size_t patch = geom.PatchSize();
  EnsureShape(col_, {rows, patch});
  // Pointers hoisted out of the parallel region: a non-const data() bumps the
  // tensor's version counter, which must not happen concurrently (tensor.h).
  {
    const float* px_all = x.data();
    float* pcol = col_.data();
    ParallelFor(0, n, [&](std::size_t i) {
      ops::Im2ColInto(px_all + i * ic_ * h * w, geom,
                      pcol + i * oh * ow * patch);
    });
  }
  EnsureShape(gemm_y_, {rows, oc_});
  if (ops::internal::UsesBlockedGemm(rows, patch, oc_)) {
    // Blocked regime: multiply against the cached pre-packed weight, repacking
    // only when the weight actually changed (optimizer steps bump version()).
    // Bit-identical to MatmulTransBInto, which packs the same panels per call.
    if (packed_w_.empty() || packed_w_version_ != w_.value.version() ||
        packed_w_.isa() != ops::ActiveGemmIsa()) {
      ops::PackBForMatmulTransBInto(w_.value, packed_w_);
      packed_w_version_ = w_.value.version();
    }
    ops::MatmulPackedInto(col_, packed_w_, gemm_y_);  // [rows, oc]
  } else {
    ops::MatmulTransBInto(col_, w_.value, gemm_y_);  // [rows, oc]
  }
  // Scatter [N·OH·OW, OC] back to NCHW and add the bias.
  EnsureShape(y, {n, oc_, oh, ow});
  const float* pg = std::as_const(gemm_y_).data();
  const float* pb = std::as_const(b_.value).data();
  float* py_all = y.data();
  ParallelFor(0, n, [&](std::size_t i) {
    const float* grow = pg + i * oh * ow * oc_;
    float* py = py_all + i * oc_ * oh * ow;
    for (std::size_t pos = 0; pos < oh * ow; ++pos) {
      const float* orow = grow + pos * oc_;
      for (std::size_t c = 0; c < oc_; ++c) {
        py[c * oh * ow + pos] = orow[c] + pb[c];
      }
    }
  });
}

Tensor Conv2d::Forward(const Tensor& x, bool train) {
  CIP_CHECK_EQ(x.rank(), 4u);
  CIP_CHECK_EQ(x.dim(1), ic_);
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = OutExtent(h), ow = OutExtent(w);
  CIP_DCHECK_GT(oh, 0u);
  CIP_DCHECK_GT(ow, 0u);
  Tensor y = ForwardGemm(x, n, oh, ow);
  if (train) cached_inputs_.push(x);
  return y;
}

// CIP_HOT  (serve-path conv forward: zero allocations once scratch is warm)
const Tensor& Conv2d::EvalForward(const Tensor& x) {
  CIP_CHECK_EQ(x.rank(), 4u);
  CIP_CHECK_EQ(x.dim(1), ic_);
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = OutExtent(h), ow = OutExtent(w);
  CIP_DCHECK_GT(oh, 0u);
  CIP_DCHECK_GT(ow, 0u);
  ForwardGemmInto(x, n, oh, ow, eval_out_);
  return eval_out_;
}

Tensor Conv2d::BackwardGemm(const Tensor& x, const Tensor& grad_out,
                            ParamGrads mode) {
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ops::Conv2dGeom geom = Geom(h, w);
  const std::size_t oh = geom.OutH(), ow = geom.OutW();
  const std::size_t rows = n * oh * ow;
  const std::size_t patch = geom.PatchSize();

  // grad_out [N, OC, OH, OW] -> gy_ [N·OH·OW, OC] (the GEMM layout).
  EnsureShape(gy_, {rows, oc_});
  const float* pg_all = grad_out.data();
  float* pgy = gy_.data();
  ParallelFor(0, n, [&](std::size_t i) {
    const float* pg = pg_all + i * oc_ * oh * ow;
    float* grow = pgy + i * oh * ow * oc_;
    for (std::size_t c = 0; c < oc_; ++c) {
      for (std::size_t pos = 0; pos < oh * ow; ++pos) {
        grow[pos * oc_ + c] = pg[c * oh * ow + pos];
      }
    }
  });

  if (mode == ParamGrads::kAccumulate) {
    // Bias gradient: column sums of gy_, accumulated without a temporary.
    ops::SumRowsAccumInto(gy_, b_.grad);

    // Recompute the batched lowering of x. The col_ scratch cannot be trusted
    // to still hold it: the dual-channel model runs forward(ch1), forward(ch2)
    // and then backs them out LIFO, so by the time ch1's Backward runs, col_
    // holds ch2's lowering.
    EnsureShape(col_, {rows, patch});
    {
      // Hoisted for the same version-counter reason as in ForwardGemm.
      const float* px_all = x.data();
      float* pcol = col_.data();
      ParallelFor(0, n, [&](std::size_t i) {
        ops::Im2ColInto(px_all + i * ic_ * h * w, geom,
                        pcol + i * oh * ow * patch);
      });
    }

    // Weight gradient: dW = gyᵀ · col, one GEMM for the whole batch.
    EnsureShape(dw_, {oc_, patch});
    ops::MatmulTransAInto(gy_, col_, dw_);
    ops::AddInPlace(w_.grad, dw_);
  }

  // Input gradient: back to column space with one GEMM, then scatter-add.
  EnsureShape(dcol_, {rows, patch});
  ops::MatmulInto(gy_, w_.value, dcol_);
  Tensor dx({n, ic_, h, w});
  {
    const float* pdcol = std::as_const(dcol_).data();
    float* pdx = dx.data();
    ParallelFor(0, n, [&](std::size_t i) {
      ops::Col2ImInto(pdcol + i * oh * ow * patch, geom,
                      pdx + i * ic_ * h * w);
    });
  }
  return dx;
}

Tensor Conv2d::Backward(const Tensor& grad_out, ParamGrads mode) {
  CIP_CHECK_MSG(!cached_inputs_.empty(), name_ << ": backward without forward");
  const Tensor x = std::move(cached_inputs_.top());
  cached_inputs_.pop();
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  CIP_CHECK_EQ(grad_out.dim(0), n);
  CIP_CHECK_EQ(grad_out.dim(1), oc_);
  CIP_CHECK_EQ(grad_out.dim(2), OutExtent(h));
  CIP_CHECK_EQ(grad_out.dim(3), OutExtent(w));
  return BackwardGemm(x, grad_out, mode);
}

void Conv2d::CollectParameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

void Conv2d::ClearCache() {
  while (!cached_inputs_.empty()) cached_inputs_.pop();
}

}  // namespace cip::nn
