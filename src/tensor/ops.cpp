#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "tensor/gemm_kernels.h"

namespace cip::ops {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  CIP_CHECK_MSG(a.SameShape(b), "shape mismatch: " << ShapeToString(a.shape())
                                                   << " vs "
                                                   << ShapeToString(b.shape()));
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

// CIP_HOT  (aggregation inner loop)
void AddInPlace(Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] += pb[i];
}

void Axpy(Tensor& a, float s, const Tensor& b) {
  CheckSameShape(a, b);
  float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] += s * pb[i];
}

void ScaleInPlace(Tensor& a, float s) {
  for (float& x : a.flat()) x *= s;
}

void ClipInPlace(Tensor& a, float lo, float hi) {
  CIP_CHECK_LE(lo, hi);
  for (float& x : a.flat()) x = std::clamp(x, lo, hi);
}

Tensor ClipMask(const Tensor& a, float lo, float hi) {
  CIP_CHECK_LE(lo, hi);
  Tensor mask(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    mask[i] = (a[i] > lo && a[i] < hi) ? 1.0f : 0.0f;
  }
  return mask;
}

Tensor Sign(const Tensor& a) {
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = (a[i] > 0.0f) ? 1.0f : (a[i] < 0.0f ? -1.0f : 0.0f);
  }
  return out;
}

// CIP_HOT  (ReLU forward: training and serve path)
void ReluInto(const Tensor& x, Tensor& y, Tensor* mask) {
  CIP_CHECK(y.SameShape(x));
  const std::size_t n = x.size();
  const float* px = x.data();
  float* py = y.data();
  // std::max(0, v) is (0 < v) ? v : 0, which -O3 lowers to a compare-and-
  // mask instead of a per-element branch (mispredicted on random signs).
  if (mask == nullptr) {
    for (std::size_t i = 0; i < n; ++i) py[i] = std::max(0.0f, px[i]);
    return;
  }
  CIP_CHECK(mask->SameShape(x));
  float* pm = mask->data();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = px[i];
    py[i] = std::max(0.0f, v);
    pm[i] = static_cast<float>(v > 0.0f);
  }
}

float SumAll(const Tensor& a) {
  double s = 0.0;
  for (float x : a.flat()) s += x;
  return static_cast<float>(s);
}

float MeanAll(const Tensor& a) {
  CIP_CHECK_GT(a.size(), 0u);
  return SumAll(a) / static_cast<float>(a.size());
}

float L1Norm(const Tensor& a) {
  double s = 0.0;
  for (float x : a.flat()) s += std::abs(x);
  return static_cast<float>(s);
}

float L2Norm(const Tensor& a) {
  double s = 0.0;
  for (float x : a.flat()) s += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(s));
}

float MaxAll(const Tensor& a) {
  CIP_CHECK_GT(a.size(), 0u);
  float m = a[0];
  for (float x : a.flat()) m = std::max(m, x);
  return m;
}

float Dot(const Tensor& a, const Tensor& b) {
  CIP_CHECK_EQ(a.size(), b.size());
  double s = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) s += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(s);
}

Tensor SumRows(const Tensor& a) {
  CIP_CHECK_EQ(a.rank(), 2u);
  Tensor out({a.dim(1)});
  SumRowsAccumInto(a, out);
  return out;
}

// CIP_HOT  (bias-gradient reduction inside Linear/Conv backward)
void SumRowsAccumInto(const Tensor& a, Tensor& out) {
  CIP_CHECK_EQ(a.rank(), 2u);
  const std::size_t m = a.dim(0), n = a.dim(1);
  CIP_CHECK_EQ(out.size(), n);
  const float* pa = a.data();
  float* po = out.data();
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < n; ++c) po[c] += pa[r * n + c];
  }
}

namespace {

// --- cache-blocked GEMM core -----------------------------------------------
//
// One macro-structure serves Matmul (B row-major [k,n]) and MatmulTransB (B
// row-major [n,k]): B is first repacked into column panels of width nr —
// packed[panel][p][jj] = B(p, panel*nr + jj) — so the micro-kernel streams
// contiguous memory regardless of B's original layout. The driver then tiles
// i into blocks of mc rows (parallelized across threads: each thread owns
// disjoint rows of C) and hands each row block to the ISA microkernel bound
// by ActiveGemmKernel(), which tiles k (so a panel slice stays cache-hot) and
// j panel by panel around an mr × nr register tile. Tile shapes (mr/nr/mc)
// are per-ISA properties of the bound kernel — see gemm_kernels.h and
// docs/KERNELS.md.
//
// Below this flop count the packing pass costs more than it saves; use the
// plain row-streaming loops instead.
constexpr std::size_t kBlockedMinFlops = 16 * 1024;
// Below this flop count even the pool's dispatch latency exceeds the kernel
// time; run the row blocks serially on the caller. 64x64x64 is the smallest
// size that dispatches.
constexpr std::size_t kParallelMinFlops = 256 * 1024;

std::size_t NumPanels(std::size_t n, std::size_t nr) {
  return (n + nr - 1) / nr;
}

// Per-thread scratch for the packing and transpose passes: grow-once,
// reuse-forever, so steady-state GEMMs perform no heap allocation. Pool
// worker threads are persistent, so their arenas amortize the same way the
// caller's does. The pack counter feeds the PackCount() test hook.
struct GemmArena {
  std::vector<float> packed;      // panel storage for per-call packing
  std::vector<float> transposed;  // A-transpose staging for MatmulTransAInto
  std::uint64_t packs = 0;
};

GemmArena& LocalArena() {
  thread_local GemmArena arena;
  return arena;
}

/// Pack B into zero-padded nr-wide column panels (nr = the bound kernel's
/// panel width). `trans == false`: B is [k, n] and B(p, j) = b[p*n + j];
/// `trans == true`: B is [n, k] and B(p, j) = b[j*k + p].
void PackPanels(const float* b, std::size_t k, std::size_t n, bool trans,
                std::size_t nr, std::vector<float>& packed) {
  ++LocalArena().packs;
  const std::size_t panels = NumPanels(n, nr);
  // CIP_ANALYZE_OK(hot-alloc-container): thread-local arena: assign reuses capacity once grown (PackCount tests)
  packed.assign(panels * k * nr, 0.0f);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * nr;
    const std::size_t jn = std::min(nr, n - j0);
    float* dst = packed.data() + jp * k * nr;
    if (!trans) {
      for (std::size_t p = 0; p < k; ++p) {
        const float* src = b + p * n + j0;
        for (std::size_t jj = 0; jj < jn; ++jj) dst[p * nr + jj] = src[jj];
      }
    } else {
      for (std::size_t jj = 0; jj < jn; ++jj) {
        const float* src = b + (j0 + jj) * k;
        for (std::size_t p = 0; p < k; ++p) dst[p * nr + jj] = src[p];
      }
    }
  }
}

/// C[m,n] = A[m,k] · B where B is pre-packed into `kernel.nr`-wide panels.
/// Overwrites C. Row blocks of kernel.mc rows go through the worker pool when
/// the product is large enough to amortize dispatch; the block partition
/// (hence every output value) is independent of the thread budget either way,
/// and kernel.mc is a multiple of kernel.mr, so micro-tile boundaries land on
/// the same rows no matter how blocks are distributed.
void GemmPacked(const GemmKernel& kernel, const float* a, std::size_t m,
                std::size_t k, std::size_t n, const float* packed, float* c) {
  const std::size_t mc = kernel.mc;
  const GemmRowsFn gemm_rows = kernel.gemm_rows;
  const std::size_t row_blocks = (m + mc - 1) / mc;
  const auto run_block = [&](std::size_t ib) {
    const std::size_t i_lo = ib * mc;
    const std::size_t i_hi = std::min(m, i_lo + mc);
    gemm_rows(a, k, n, packed, c, i_lo, i_hi);
  };
  if (m * n * k >= kParallelMinFlops && row_blocks > 1) {
    ParallelForCoarse(0, row_blocks, run_block);
  } else {
    for (std::size_t ib = 0; ib < row_blocks; ++ib) run_block(ib);
  }
}

/// Plain row-streaming C = A·B for sizes where packing does not pay off.
void SimpleMatmulInto(const float* pa, std::size_t m, std::size_t k,
                      std::size_t n, const float* pb, float* pc) {
  std::fill(pc, pc + m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    const float* arow = pa + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Plain dot-product C = A·Bᵀ for small sizes.
void SimpleMatmulTransBInto(const float* pa, std::size_t m, std::size_t k,
                            std::size_t n, const float* pb, float* pc) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      crow[j] = s;
    }
  }
}

void CheckMatmulOut(const Tensor& c, std::size_t m, std::size_t n) {
  CIP_CHECK_EQ(c.rank(), 2u);
  CIP_CHECK_EQ(c.dim(0), m);
  CIP_CHECK_EQ(c.dim(1), n);
}

}  // namespace

namespace internal {

bool UsesBlockedGemm(std::size_t m, std::size_t k, std::size_t n) {
  return m * n * k >= kBlockedMinFlops;
}

std::size_t GemmArenaBytes() {
  const GemmArena& arena = LocalArena();
  return (arena.packed.capacity() + arena.transposed.capacity()) *
         sizeof(float);
}

std::uint64_t PackCount() { return LocalArena().packs; }

}  // namespace internal

// CIP_HOT  (GEMM entry: Linear/Conv forward+backward)
void MatmulInto(const Tensor& a, const Tensor& b, Tensor& c) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  CIP_CHECK_EQ(b.dim(0), k);
  CheckMatmulOut(c, m, n);
  if (!internal::UsesBlockedGemm(m, k, n)) {
    SimpleMatmulInto(a.data(), m, k, n, b.data(), c.data());
    return;
  }
  const GemmKernel& kernel = ActiveGemmKernel();
  std::vector<float>& packed = LocalArena().packed;
  PackPanels(b.data(), k, n, /*trans=*/false, kernel.nr, packed);
  GemmPacked(kernel, a.data(), m, k, n, packed.data(), c.data());
}

// CIP_HOT  (GEMM entry: d(in) = d(out) * W)
void MatmulTransBInto(const Tensor& a, const Tensor& b, Tensor& c) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  CIP_CHECK_EQ(b.dim(1), k);
  CheckMatmulOut(c, m, n);
  if (!internal::UsesBlockedGemm(m, k, n)) {
    SimpleMatmulTransBInto(a.data(), m, k, n, b.data(), c.data());
    return;
  }
  const GemmKernel& kernel = ActiveGemmKernel();
  std::vector<float>& packed = LocalArena().packed;
  PackPanels(b.data(), k, n, /*trans=*/true, kernel.nr, packed);
  GemmPacked(kernel, a.data(), m, k, n, packed.data(), c.data());
}

void PackBForMatmulInto(const Tensor& b, PackedB& out) {
  CIP_CHECK_EQ(b.rank(), 2u);
  const GemmKernel& kernel = ActiveGemmKernel();
  out.k_ = b.dim(0);
  out.n_ = b.dim(1);
  out.nr_ = kernel.nr;
  out.isa_ = kernel.isa;
  PackPanels(b.data(), out.k_, out.n_, /*trans=*/false, kernel.nr,
             out.panels_);
}

void PackBForMatmulTransBInto(const Tensor& b, PackedB& out) {
  CIP_CHECK_EQ(b.rank(), 2u);
  const GemmKernel& kernel = ActiveGemmKernel();
  out.k_ = b.dim(1);
  out.n_ = b.dim(0);
  out.nr_ = kernel.nr;
  out.isa_ = kernel.isa;
  PackPanels(b.data(), out.k_, out.n_, /*trans=*/true, kernel.nr,
             out.panels_);
}

// CIP_HOT  (GEMM entry over pre-packed weights: eval forward)
void MatmulPackedInto(const Tensor& a, const PackedB& b, Tensor& c) {
  CIP_CHECK(!b.empty());
  CIP_CHECK_EQ(a.rank(), 2u);
  const std::size_t m = a.dim(0);
  CIP_CHECK_EQ(a.dim(1), b.k());
  CheckMatmulOut(c, m, b.n());
  const GemmKernel& kernel = ActiveGemmKernel();
  CIP_CHECK_MSG(b.nr_ == kernel.nr,
                "PackedB layout (nr=" << b.nr_ << ", isa=" << IsaName(b.isa())
                                      << ") does not match the bound GEMM "
                                         "kernel (nr="
                                      << kernel.nr << ", isa=" << kernel.name
                                      << "); repack after an ISA change");
  GemmPacked(kernel, a.data(), m, b.k(), b.n(), b.panels_.data(), c.data());
}

// CIP_HOT  (GEMM entry: dW = x^T * d(out))
void MatmulTransAInto(const Tensor& a, const Tensor& b, Tensor& c) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  CIP_CHECK_EQ(b.dim(0), k);
  CheckMatmulOut(c, m, n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (m * n * k < kBlockedMinFlops) {
    // c[i,j] = sum_p a[p,i] * b[p,j]; accumulate row by row for locality.
    std::fill(pc, pc + m * n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float* arow = pa + p * m;
      const float* brow = pb + p * n;
      for (std::size_t i = 0; i < m; ++i) {
        const float av = arow[i];
        if (av == 0.0f) continue;
        float* crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
    return;
  }
  // Transpose A once (O(k·m), trivial next to the O(m·n·k) GEMM) so the
  // blocked kernel reads rows contiguously. Staged in the thread-local arena
  // so repeated calls stop allocating once the buffers have grown.
  GemmArena& arena = LocalArena();
  std::vector<float>& at = arena.transposed;
  // CIP_ANALYZE_OK(hot-alloc-container): grow-once arena transpose staging, guarded by the size check above
  if (at.size() < m * k) at.resize(m * k);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = pa + p * m;
    for (std::size_t i = 0; i < m; ++i) at[i * k + p] = arow[i];
  }
  const GemmKernel& kernel = ActiveGemmKernel();
  PackPanels(pb, k, n, /*trans=*/false, kernel.nr, arena.packed);
  GemmPacked(kernel, at.data(), m, k, n, arena.packed.data(), pc);
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  Tensor c({a.dim(0), b.dim(1)});
  MatmulInto(a, b, c);
  return c;
}

Tensor MatmulTransB(const Tensor& a, const Tensor& b) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  Tensor c({a.dim(0), b.dim(0)});
  MatmulTransBInto(a, b, c);
  return c;
}

Tensor MatmulTransA(const Tensor& a, const Tensor& b) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  Tensor c({a.dim(1), b.dim(1)});
  MatmulTransAInto(a, b, c);
  return c;
}

namespace {

void CheckGeom(const Conv2dGeom& g) {
  CIP_CHECK_GT(g.in_channels, 0u);
  CIP_CHECK_GT(g.kernel, 0u);
  CIP_CHECK_GT(g.stride, 0u);
  CIP_CHECK_GE(g.height + 2 * g.pad, g.kernel);
  CIP_CHECK_GE(g.width + 2 * g.pad, g.kernel);
}

// One C·H·W sample at `x_sample` lowered into OutH·OutW consecutive rows of
// PatchSize() floats at `col_rows` (layout as documented on Im2ColInto).
void Im2ColSample(const float* x_sample, const Conv2dGeom& g,
                  float* col_rows) {
  const std::size_t h = g.height, w = g.width, k = g.kernel;
  const std::size_t oh = g.OutH(), ow = g.OutW();
  const std::size_t cols = g.PatchSize();
  const float* px = x_sample;
  float* pc = col_rows;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      float* crow = pc + (oy * ow + ox) * cols;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::size_t ky = 0; ky < k; ++ky) {
          const long iy =
              static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.pad);
          // Whole kernel row in one go when it is fully inside the image —
          // the common interior case — with the zero-padding boundary handled
          // tap by tap otherwise.
          float* drow = crow + c * k * k + ky * k;
          if (iy < 0 || iy >= static_cast<long>(h)) {
            for (std::size_t kx = 0; kx < k; ++kx) drow[kx] = 0.0f;
            continue;
          }
          const float* srow =
              px + c * h * w + static_cast<std::size_t>(iy) * w;
          for (std::size_t kx = 0; kx < k; ++kx) {
            const long ix = static_cast<long>(ox * g.stride + kx) -
                            static_cast<long>(g.pad);
            drow[kx] = (ix >= 0 && ix < static_cast<long>(w))
                           ? srow[static_cast<std::size_t>(ix)]
                           : 0.0f;
          }
        }
      }
    }
  }
}

// Scatter-add OutH·OutW rows at `col_rows` into one C·H·W sample at
// `dx_sample` (the adjoint of Im2ColSample).
void Col2ImSample(const float* col_rows, const Conv2dGeom& g,
                  float* dx_sample) {
  const std::size_t h = g.height, w = g.width, k = g.kernel;
  const std::size_t oh = g.OutH(), ow = g.OutW();
  const std::size_t cols = g.PatchSize();
  float* px = dx_sample;
  const float* pc = col_rows;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const float* crow = pc + (oy * ow + ox) * cols;
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::size_t ky = 0; ky < k; ++ky) {
          const long iy =
              static_cast<long>(oy * g.stride + ky) - static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(h)) continue;
          float* drow = px + c * h * w + static_cast<std::size_t>(iy) * w;
          const float* srow = crow + c * k * k + ky * k;
          for (std::size_t kx = 0; kx < k; ++kx) {
            const long ix = static_cast<long>(ox * g.stride + kx) -
                            static_cast<long>(g.pad);
            if (ix < 0 || ix >= static_cast<long>(w)) continue;
            drow[static_cast<std::size_t>(ix)] += srow[kx];
          }
        }
      }
    }
  }
}

}  // namespace

void Im2ColInto(const Tensor& x, std::size_t n_index, const Conv2dGeom& g,
                Tensor& col, std::size_t row_offset) {
  CheckGeom(g);
  CIP_DCHECK_EQ(x.rank(), 4u);
  CIP_DCHECK_LT(n_index, x.dim(0));
  CIP_DCHECK_EQ(x.dim(1), g.in_channels);
  CIP_DCHECK_EQ(x.dim(2), g.height);
  CIP_DCHECK_EQ(x.dim(3), g.width);
  CIP_DCHECK_EQ(col.rank(), 2u);
  CIP_DCHECK_EQ(col.dim(1), g.PatchSize());
  CIP_DCHECK_LE(row_offset + g.OutH() * g.OutW(), col.dim(0));
  Im2ColSample(x.data() + n_index * g.in_channels * g.height * g.width, g,
               col.data() + row_offset * g.PatchSize());
}

Tensor Im2Col(const Tensor& x, std::size_t n_index, const Conv2dGeom& g) {
  CheckGeom(g);
  Tensor col({g.OutH() * g.OutW(), g.PatchSize()});
  Im2ColInto(x, n_index, g, col, 0);
  return col;
}

void Col2ImInto(const Tensor& col, std::size_t row_offset, const Conv2dGeom& g,
                Tensor& dx, std::size_t n_index) {
  CheckGeom(g);
  CIP_DCHECK_EQ(col.rank(), 2u);
  CIP_DCHECK_EQ(col.dim(1), g.PatchSize());
  CIP_DCHECK_LE(row_offset + g.OutH() * g.OutW(), col.dim(0));
  CIP_DCHECK_EQ(dx.rank(), 4u);
  CIP_DCHECK_LT(n_index, dx.dim(0));
  CIP_DCHECK_EQ(dx.dim(1), g.in_channels);
  CIP_DCHECK_EQ(dx.dim(2), g.height);
  CIP_DCHECK_EQ(dx.dim(3), g.width);
  Col2ImSample(col.data() + row_offset * g.PatchSize(), g,
               dx.data() + n_index * g.in_channels * g.height * g.width);
}

// ---- implicit-GEMM convolution helpers -------------------------------------

namespace {

// Widest panel the strided packers keep grid offsets for on the stack; every
// bound kernel's nr (8 or 16) is far below it.
constexpr std::size_t kMaxPanelWidth = 64;

// Stride-1 forward panels: row p of panel jp is the NR floats of the padded
// image starting at tap p's shift plus the panel's first grid column — one
// fixed-size block copy. NR == 0 takes the width from `nr` at run time.
template <std::size_t NR>
void PackShiftedPanels(const float* xpad, const Conv2dGeom& g, std::size_t nr,
                       float* panels) {
  const std::size_t width = NR != 0 ? NR : nr;
  const std::size_t k = g.kernel, wp = g.PaddedW();
  const std::size_t plane = g.PaddedH() * wp;
  const std::size_t npanels = (g.GridSize() + width - 1) / width;
  float* dst = panels;
  for (std::size_t jp = 0; jp < npanels; ++jp) {
    const float* base = xpad + jp * width;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        const float* src = base + c * plane + ky * wp;
        for (std::size_t kx = 0; kx < k; ++kx, dst += width) {
          std::memcpy(dst, src + kx, width * sizeof(float));
        }
      }
    }
  }
}

}  // namespace

// CIP_HOT  (implicit-GEMM conv: per-sample zero padding)
void PadSampleInto(const float* x_sample, const Conv2dGeom& g, std::size_t nr,
                   float* xpad) {
  const std::size_t h = g.height, w = g.width, pad = g.pad, wp = g.PaddedW();
  float* dst = xpad;
  const float* src = x_sample;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    dst = std::fill_n(dst, pad * wp, 0.0f);
    for (std::size_t iy = 0; iy < h; ++iy, src += w) {
      dst = std::fill_n(dst, pad, 0.0f);
      dst = std::copy_n(src, w, dst);
      dst = std::fill_n(dst, pad, 0.0f);
    }
    dst = std::fill_n(dst, pad * wp, 0.0f);
  }
  std::fill_n(dst, g.kernel + nr, 0.0f);
}

// CIP_HOT  (implicit-GEMM conv: crop the padded dX back to the input)
void UnpadSampleInto(const float* xpad, const Conv2dGeom& g, float* x_sample) {
  const std::size_t h = g.height, w = g.width, wp = g.PaddedW();
  const float* src = xpad + g.pad * wp + g.pad;
  float* dst = x_sample;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t iy = 0; iy < h; ++iy, dst += w) {
      std::copy_n(src + iy * wp, w, dst);
    }
    src += g.PaddedH() * wp;
  }
}

// CIP_HOT  (implicit-GEMM conv: forward B panels straight from the padded input)
void PackTapPanelsInto(const float* xpad, const Conv2dGeom& g, std::size_t nr,
                       float* panels) {
  if (g.stride == 1) {
    switch (nr) {
      case 8:
        PackShiftedPanels<8>(xpad, g, nr, panels);
        return;
      case 16:
        PackShiftedPanels<16>(xpad, g, nr, panels);
        return;
      default:
        PackShiftedPanels<0>(xpad, g, nr, panels);
        return;
    }
  }
  CIP_CHECK_LE(nr, kMaxPanelWidth);
  const std::size_t k = g.kernel, wp = g.PaddedW();
  const std::size_t plane = g.PaddedH() * wp, cols = g.GridSize();
  const std::size_t ow = g.OutW(), step = g.stride;
  std::size_t off[kMaxPanelWidth];  // grid column -> offset from a tap origin
  float* dst = panels;
  for (std::size_t j0 = 0; j0 < cols; j0 += nr) {
    const std::size_t jn = std::min(nr, cols - j0);
    for (std::size_t jj = 0; jj < jn; ++jj) {
      const std::size_t j = j0 + jj;
      off[jj] = (j / ow) * step * wp + (j % ow) * step;
    }
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx, dst += nr) {
          const float* tap = xpad + c * plane + ky * wp + kx;
          for (std::size_t jj = 0; jj < jn; ++jj) dst[jj] = tap[off[jj]];
          std::fill(dst + jn, dst + nr, 0.0f);
        }
      }
    }
  }
}

// CIP_HOT  (implicit-GEMM conv: grid product -> NCHW output plus bias)
void CropGridInto(const float* grid, const Conv2dGeom& g, std::size_t rows,
                  const float* bias, float* out) {
  const std::size_t oh = g.OutH(), ow = g.OutW(), gw = g.GridW();
  for (std::size_t r = 0; r < rows; ++r) {
    const float b = bias[r];
    const float* src = grid + r * oh * gw;
    float* dst = out + r * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        dst[oy * ow + ox] = src[oy * gw + ox] + b;
      }
    }
  }
}

// CIP_HOT  (implicit-GEMM conv: grad_out sample -> dX GEMM B panels)
void PackGridPanelsInto(const float* src, std::size_t rows,
                        const Conv2dGeom& g, std::size_t nr, float* panels) {
  const std::size_t oh = g.OutH(), ow = g.OutW(), gw = g.GridW();
  const std::size_t npanels = (oh * gw + nr - 1) / nr;
  for (std::size_t r = 0; r < rows; ++r) {
    // Walk row r of the grid in order; (jp, jj) tracks its panel slot.
    std::size_t jp = 0, jj = 0;
    const auto put = [&](float v) {
      panels[(jp * rows + r) * nr + jj] = v;
      if (++jj == nr) {
        jj = 0;
        ++jp;
      }
    };
    const float* row = src + r * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy, row += ow) {
      for (std::size_t ox = 0; ox < gw; ++ox) put(ox < ow ? row[ox] : 0.0f);
    }
    while (jp < npanels) put(0.0f);
  }
}

// CIP_HOT  (implicit-GEMM conv: tap-gradient scatter, the col2im replacement)
void ScatterTapsInto(const float* dcol, const Conv2dGeom& g, std::size_t nr,
                     float* dxpad) {
  std::fill_n(dxpad, g.PaddedSize(nr), 0.0f);
  const std::size_t k = g.kernel, wp = g.PaddedW(), step = g.stride;
  const std::size_t plane = g.PaddedH() * wp, cols = g.GridSize();
  const std::size_t oh = g.OutH(), ow = g.OutW();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    // A pixel receives tap (ky, kx) from output (oy, ox) with
    // oy·stride + ky and ox·stride + kx fixed, so descending taps visit its
    // contributors in ascending (oy, ox) order, as col2im does.
    for (std::size_t ky = k; ky-- > 0;) {
      for (std::size_t kx = k; kx-- > 0;) {
        const float* src = dcol + ((c * k + ky) * k + kx) * cols;
        float* dst = dxpad + c * plane + ky * wp + kx;
        if (step == 1) {
          for (std::size_t j = 0; j < cols; ++j) dst[j] += src[j];
          continue;
        }
        for (std::size_t oy = 0; oy < oh; ++oy) {
          float* drow = dst + oy * step * wp;
          const float* srow = src + oy * ow;
          for (std::size_t ox = 0; ox < ow; ++ox) drow[ox * step] += srow[ox];
        }
      }
    }
  }
}

// CIP_HOT  (implicit-GEMM conv: one dW B panel over the whole batch)
void PackPatchPanelInto(const float* xpad_batch, std::size_t samples,
                        const Conv2dGeom& g, std::size_t p0, std::size_t nr,
                        float* panel) {
  CIP_CHECK_LE(nr, kMaxPanelWidth);
  const std::size_t k = g.kernel, wp = g.PaddedW(), step = g.stride;
  const std::size_t plane = g.PaddedH() * wp, stride_n = g.PaddedSize(nr);
  const std::size_t oh = g.OutH(), ow = g.OutW();
  const std::size_t jn = std::min(nr, g.PatchSize() - p0);
  std::size_t tap[kMaxPanelWidth];
  for (std::size_t jj = 0; jj < jn; ++jj) {
    const std::size_t p = p0 + jj;
    tap[jj] = (p / (k * k)) * plane + (p / k % k) * wp + p % k;
  }
  float* dst = panel;
  for (std::size_t i = 0; i < samples; ++i) {
    const float* xpad = xpad_batch + i * stride_n;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox, dst += nr) {
        const float* origin = xpad + oy * step * wp + ox * step;
        for (std::size_t jj = 0; jj < jn; ++jj) dst[jj] = origin[tap[jj]];
        std::fill(dst + jn, dst + nr, 0.0f);
      }
    }
  }
}

// CIP_HOT  (implicit-GEMM conv below the blocked threshold)
void StreamingPanelGemm(const float* a, std::size_t m, std::size_t k,
                        std::size_t n, const float* panels, std::size_t nr,
                        float* c, StreamingForm form) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    if (form == StreamingForm::kDot) {
      for (std::size_t j = 0; j < n; ++j) {
        const float* bp = panels + (j / nr) * k * nr + j % nr;
        float s = 0.0f;
        for (std::size_t p = 0; p < k; ++p) s += arow[p] * bp[p * nr];
        crow[j] = s;
      }
      continue;
    }
    std::fill_n(crow, n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      for (std::size_t j0 = 0; j0 < n; j0 += nr) {
        const float* bp = panels + j0 * k + p * nr;
        const std::size_t jn = std::min(nr, n - j0);
        for (std::size_t jj = 0; jj < jn; ++jj) crow[j0 + jj] += av * bp[jj];
      }
    }
  }
}

Tensor SoftmaxRows(const Tensor& logits) {
  CIP_CHECK_EQ(logits.rank(), 2u);
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  CIP_DCHECK_GT(c, 0u);  // row[0] read below
  Tensor out(logits.shape());
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* orow = out.data() + i * c;
    float mx = row[0];
    for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < c; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor LogSoftmaxRows(const Tensor& logits) {
  CIP_CHECK_EQ(logits.rank(), 2u);
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  CIP_DCHECK_GT(c, 0u);  // row[0] read below
  Tensor out(logits.shape());
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* orow = out.data() + i * c;
    float mx = row[0];
    for (std::size_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j) denom += std::exp(row[j] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    for (std::size_t j = 0; j < c; ++j) orow[j] = row[j] - lse;
  }
  return out;
}

float SoftmaxCrossEntropy(const Tensor& logits, std::span<const int> labels,
                          Tensor* grad) {
  CIP_CHECK_EQ(logits.rank(), 2u);
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  CIP_CHECK_EQ(labels.size(), n);
  const Tensor log_probs = LogSoftmaxRows(logits);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    CIP_CHECK_GE(y, 0);
    CIP_CHECK_LT(static_cast<std::size_t>(y), c);
    loss -= log_probs[i * c + static_cast<std::size_t>(y)];
  }
  loss /= static_cast<double>(n);
  if (grad != nullptr) {
    *grad = Tensor(logits.shape());
    const float inv_n = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        float p = std::exp(log_probs[i * c + j]);
        (*grad)[i * c + j] =
            (p - (static_cast<std::size_t>(labels[i]) == j ? 1.0f : 0.0f)) *
            inv_n;
      }
    }
  }
  return static_cast<float>(loss);
}

std::vector<float> PerSampleCrossEntropy(const Tensor& logits,
                                         std::span<const int> labels) {
  CIP_CHECK_EQ(logits.rank(), 2u);
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  CIP_CHECK_EQ(labels.size(), n);
  const Tensor log_probs = LogSoftmaxRows(logits);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = labels[i];
    CIP_CHECK_GE(y, 0);
    CIP_CHECK_LT(static_cast<std::size_t>(y), c);
    out[i] = -log_probs[i * c + static_cast<std::size_t>(y)];
  }
  return out;
}

Tensor SoftmaxBackwardRows(const Tensor& probs, const Tensor& dprobs) {
  CIP_CHECK_EQ(probs.rank(), 2u);
  CIP_DCHECK_GT(probs.dim(1), 0u);
  CIP_CHECK(probs.SameShape(dprobs));
  const std::size_t n = probs.dim(0), c = probs.dim(1);
  Tensor out(probs.shape());
  for (std::size_t i = 0; i < n; ++i) {
    const float* p = probs.data() + i * c;
    const float* dp = dprobs.data() + i * c;
    double dot = 0.0;
    for (std::size_t j = 0; j < c; ++j) dot += static_cast<double>(dp[j]) * p[j];
    float* o = out.data() + i * c;
    for (std::size_t j = 0; j < c; ++j) {
      o[j] = p[j] * (dp[j] - static_cast<float>(dot));
    }
  }
  return out;
}

std::vector<int> ArgmaxRows(const Tensor& scores) {
  CIP_CHECK_EQ(scores.rank(), 2u);
  const std::size_t n = scores.dim(0), c = scores.dim(1);
  CIP_DCHECK_GT(c, 0u);  // row[0] read below
  std::vector<int> out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = scores.data() + i * c;
    std::size_t best = 0;
    for (std::size_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

}  // namespace cip::ops
