#include "nn/conv2d.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "nn/init.h"
#include "tensor/gemm_kernels.h"

namespace cip::nn {

namespace {

// Per-thread implicit-GEMM scratch: grow-once, reuse-forever, like the GEMM
// arena in tensor/ops.cpp. Pool workers are persistent, so their arenas
// amortize the same way the caller's does. Per-sample (and per-dW-panel)
// work uses `padded`/`panels`/`grid` on whichever thread runs it; the
// batch-wide operands one Backward shares with its workers live in the
// calling thread's `weight_t`/`batch_padded`/`grad_rows`.
struct ConvArena {
  std::vector<float> padded;        // one zero-padded sample (x, or dX)
  std::vector<float> panels;        // B panels of one GEMM call
  std::vector<float> grid;          // product of one GEMM call
  std::vector<float> weight_t;      // Wᵀ [C·K·K, OC]: dX's A
  std::vector<float> batch_padded;  // every sample zero-padded: dW's B source
  std::vector<float> grad_rows;     // grad_out as [OC, N·OH·OW]: dW's A
};

ConvArena& LocalArena() {
  thread_local ConvArena arena;
  return arena;
}

float* Grow(std::vector<float>& buf, std::size_t n) {
  // CIP_ANALYZE_OK(hot-alloc-container): thread-local conv arena: grows once per thread to the largest shape, then reuses capacity
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// C[m, n] = A[m, k] · B over B panels packed at kernel.nr: the bound FMA
// kernel in the blocked regime, below it the streaming loop of the
// Matmul*Into the lowered conv ran for this product (`form`).
void PanelGemm(const ops::GemmKernel& kernel, bool blocked, const float* a,
               std::size_t m, std::size_t k, std::size_t n,
               const float* panels, float* c, ops::StreamingForm form) {
  if (blocked) {
    kernel.gemm_rows(a, k, n, panels, c, 0, m);
  } else {
    ops::StreamingPanelGemm(a, m, k, n, panels, kernel.nr, c, form);
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               std::string name)
    : ic_(in_channels),
      oc_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      name_(std::move(name)),
      w_(name_ + ".w", Tensor({out_channels, in_channels * kernel * kernel}),
         in_channels * kernel * kernel),
      b_(name_ + ".b", Tensor({out_channels})) {
  CIP_CHECK_GT(ic_, 0u);
  CIP_CHECK_GT(oc_, 0u);
  CIP_CHECK_GT(k_, 0u);
  CIP_CHECK_GT(stride_, 0u);
}

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng, std::string name)
    : Conv2d(in_channels, out_channels, kernel, stride, padding,
             std::move(name)) {
  HeInit(Parameters(), rng);
}

// CIP_HOT  (eval conv forward: one output allocation, per-thread scratch)
Tensor Conv2d::ForwardGemm(const Tensor& x) {
  // CIP_ANALYZE_OK(hot-alloc-tensor): the returned output - the one allocation eval forward permits (test_alloc_free)
  Tensor y;
  ForwardGemmInto(x, y);
  return y;
}

// CIP_HOT  (serve-path conv core: writes into caller-owned output scratch)
void Conv2d::ForwardGemmInto(const Tensor& x, Tensor& y) {
  const std::size_t n = x.dim(0);
  // OutExtent CIP_CHECKs that the padded input covers the kernel.
  const std::size_t oh = OutExtent(x.dim(2)), ow = OutExtent(x.dim(3));
  const ops::Conv2dGeom g = Geom(x.dim(2), x.dim(3));
  const std::size_t patch = g.PatchSize(), cols = g.GridSize();
  const ops::GemmKernel& kernel = ops::ActiveGemmKernel();
  const std::size_t nr = kernel.nr;
  const bool blocked = ops::internal::UsesBlockedGemm(n * oh * ow, patch, oc_);
  EnsureShape(y, {n, oc_, oh, ow});
  // Pointers hoisted out of the parallel region: a non-const data() bumps the
  // tensor's version counter, which must not happen concurrently (tensor.h).
  const float* px_all = x.data();
  const float* pw = std::as_const(w_.value).data();
  const float* pb = std::as_const(b_.value).data();
  float* py_all = y.data();
  const std::size_t oc = oc_, in_size = ic_ * g.height * g.width;
  ParallelFor(0, n, [&](std::size_t i) {
    ConvArena& arena = LocalArena();
    float* xpad = Grow(arena.padded, g.PaddedSize(nr));
    float* panels = Grow(arena.panels, ops::PanelStorage(patch, cols, nr));
    float* grid = Grow(arena.grid, oc * cols);
    ops::PadSampleInto(px_all + i * in_size, g, nr, xpad);
    ops::PackTapPanelsInto(xpad, g, nr, panels);
    PanelGemm(kernel, blocked, pw, oc, patch, cols, panels, grid,
              ops::StreamingForm::kDot);
    ops::CropGridInto(grid, g, oc, pb, py_all + i * oc * oh * ow);
  });
}

Tensor Conv2d::Forward(const Tensor& x, bool train) {
  CIP_CHECK_EQ(x.rank(), 4u);
  CIP_CHECK_EQ(x.dim(1), ic_);
  Tensor y = ForwardGemm(x);
  if (train) cached_inputs_.push(x);
  return y;
}

// CIP_HOT  (serve-path conv forward: zero allocations once scratch is warm)
const Tensor& Conv2d::EvalForward(const Tensor& x) {
  CIP_CHECK_EQ(x.rank(), 4u);
  CIP_CHECK_EQ(x.dim(1), ic_);
  ForwardGemmInto(x, eval_out_);
  return eval_out_;
}

void Conv2d::AccumulateParamGrads(const Tensor& x, const Tensor& grad_out,
                                  const ops::Conv2dGeom& g, bool blocked) {
  const std::size_t n = x.dim(0), plane = g.OutH() * g.OutW();
  const std::size_t rows = n * plane, patch = g.PatchSize();
  const ops::GemmKernel& kernel = ops::ActiveGemmKernel();
  const std::size_t nr = kernel.nr, oc = oc_;
  const std::size_t in_size = ic_ * g.height * g.width;
  const float* pg = grad_out.data();

  // db: each channel's sum in ascending (sample, oy, ox) order, straight onto
  // the gradient.
  float* pdb = b_.grad.data();
  for (std::size_t c = 0; c < oc; ++c) {
    float s = pdb[c];
    for (std::size_t i = 0; i < n; ++i) {
      const float* src = pg + (i * oc + c) * plane;
      for (std::size_t pos = 0; pos < plane; ++pos) s += src[pos];
    }
    pdb[c] = s;
  }

  // dW = gradᵀ · taps with k = N·OH·OW in one kernel call per column panel,
  // so every dW element is one ascending (sample, oy, ox) chain. A is
  // grad_out regrouped to [OC, N·OH·OW]; B's panels gather from the padded
  // batch.
  ConvArena& arena = LocalArena();
  float* grad_rows = Grow(arena.grad_rows, oc * rows);
  for (std::size_t c = 0; c < oc; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      std::copy_n(pg + (i * oc + c) * plane, plane,
                  grad_rows + c * rows + i * plane);
    }
  }
  const std::size_t padded = g.PaddedSize(nr);
  float* xpad_all = Grow(arena.batch_padded, n * padded);
  const float* px_all = x.data();
  ParallelFor(0, n, [&](std::size_t i) {
    ops::PadSampleInto(px_all + i * in_size, g, nr, xpad_all + i * padded);
  });
  float* pdw = w_.grad.data();
  ParallelFor(0, (patch + nr - 1) / nr, [&](std::size_t jp) {
    ConvArena& local = LocalArena();
    const std::size_t p0 = jp * nr, jn = std::min(nr, patch - p0);
    float* panel = Grow(local.panels, rows * nr);
    float* prod = Grow(local.grid, oc * jn);
    ops::PackPatchPanelInto(xpad_all, n, g, p0, nr, panel);
    PanelGemm(kernel, blocked, grad_rows, oc, rows, jn, panel, prod,
              ops::StreamingForm::kRowUpdate);
    for (std::size_t c = 0; c < oc; ++c) {
      for (std::size_t jj = 0; jj < jn; ++jj) {
        pdw[c * patch + p0 + jj] += prod[c * jn + jj];
      }
    }
  });
}

Tensor Conv2d::InputGrad(const Tensor& grad_out, const ops::Conv2dGeom& g,
                         bool blocked) {
  const std::size_t n = grad_out.dim(0), plane = g.OutH() * g.OutW();
  const std::size_t patch = g.PatchSize(), cols = g.GridSize();
  const ops::GemmKernel& kernel = ops::ActiveGemmKernel();
  const std::size_t nr = kernel.nr, oc = oc_;
  const std::size_t in_size = ic_ * g.height * g.width;

  // A = Wᵀ [C·K·K, OC], shared read-only by every sample.
  float* wt = Grow(LocalArena().weight_t, patch * oc);
  const float* pw = std::as_const(w_.value).data();
  for (std::size_t c = 0; c < oc; ++c) {
    for (std::size_t p = 0; p < patch; ++p) wt[p * oc + c] = pw[c * patch + p];
  }

  Tensor dx({n, ic_, g.height, g.width});
  const float* pg = grad_out.data();
  float* pdx = dx.data();
  ParallelFor(0, n, [&](std::size_t i) {
    ConvArena& arena = LocalArena();
    float* panels = Grow(arena.panels, ops::PanelStorage(oc, cols, nr));
    float* dcol = Grow(arena.grid, patch * cols);
    float* dxpad = Grow(arena.padded, g.PaddedSize(nr));
    ops::PackGridPanelsInto(pg + i * oc * plane, oc, g, nr, panels);
    PanelGemm(kernel, blocked, wt, patch, oc, cols, panels, dcol,
              ops::StreamingForm::kRowUpdate);
    ops::ScatterTapsInto(dcol, g, nr, dxpad);
    ops::UnpadSampleInto(dxpad, g, pdx + i * in_size);
  });
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
  const ops::Conv2dGeom g = Geom(h, w);
  // One regime for all three products, decided on the whole batch's
  // N·OH·OW × C·K·K × OC exactly as Matmul*Into decides it.
  const bool blocked = ops::internal::UsesBlockedGemm(
      n * g.OutH() * g.OutW(), g.PatchSize(), oc_);
  if (mode == ParamGrads::kAccumulate) {
    AccumulateParamGrads(x, grad_out, g, blocked);
  }
  return InputGrad(grad_out, g, blocked);
}

void Conv2d::CollectParameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

void Conv2d::ClearCache() {
  while (!cached_inputs_.empty()) cached_inputs_.pop();
}

namespace internal {

std::size_t ConvArenaBytes() {
  const ConvArena& arena = LocalArena();
  return (arena.padded.capacity() + arena.panels.capacity() +
          arena.grid.capacity() + arena.weight_t.capacity() +
          arena.batch_padded.capacity() + arena.grad_rows.capacity()) *
         sizeof(float);
}

}  // namespace internal

}  // namespace cip::nn
