// Free-function tensor operations.
//
// Conventions: functions ending in `Into` write to an output tensor that must
// already have the right shape; value-returning variants allocate. Matmul
// shapes follow BLAS: A is [m, k], B is [k, n], C is [m, n].
#pragma once

#include <span>

#include "common/cpu_features.h"
#include "tensor/tensor.h"

namespace cip::ops {

// ---- elementwise ----------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
/// a - b, elementwise; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);
/// a * b, elementwise (Hadamard product); shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);
/// s * a, elementwise.
Tensor Scale(const Tensor& a, float s);

/// a += b, elementwise; shapes must match.
void AddInPlace(Tensor& a, const Tensor& b);
/// a += s * b  (axpy)
void Axpy(Tensor& a, float s, const Tensor& b);
/// a *= s, elementwise.
void ScaleInPlace(Tensor& a, float s);
/// Clamp every element into [lo, hi].
void ClipInPlace(Tensor& a, float lo, float hi);
/// mask[i] = 1 if a[i] strictly inside (lo, hi) else 0 — the derivative mask
/// of clipping (boundary treated as saturated).
Tensor ClipMask(const Tensor& a, float lo, float hi);
/// Elementwise sign (-1, 0, +1).
Tensor Sign(const Tensor& a);
/// ReLU: y = max(0, x) and, when `mask` is non-null, mask = 1 where x > 0
/// else 0 (the derivative). y and *mask must already have x's shape.
/// Branch-free and vectorizable, yet bitwise equal to `x > 0 ? x : 0` for
/// every input: −0, +0 and NaN all give +0.
void ReluInto(const Tensor& x, Tensor& y, Tensor* mask);

// ---- reductions -----------------------------------------------------------

float SumAll(const Tensor& a);
/// Mean over all elements; the tensor must be non-empty.
float MeanAll(const Tensor& a);
/// Sum of absolute values over all elements.
float L1Norm(const Tensor& a);
/// Euclidean norm over all elements (sqrt of sum of squares).
float L2Norm(const Tensor& a);
/// Maximum element; the tensor must be non-empty.
float MaxAll(const Tensor& a);
/// Inner product of the flattened tensors; sizes must match.
float Dot(const Tensor& a, const Tensor& b);

/// Column-wise sum of a [m, n] matrix -> [n].
Tensor SumRows(const Tensor& a);

/// out += column-wise sums of a [m, n] matrix. out must be a preallocated
/// [n] tensor (accumulating, allocation-free variant of SumRows for reused
/// gradient buffers).
void SumRowsAccumInto(const Tensor& a, Tensor& out);

// ---- linear algebra --------------------------------------------------------
//
// All matmuls run a cache-blocked kernel: B is packed into contiguous
// column panels once, then the i (rows of C), k (depth), and j (columns of C)
// loops are tiled so each panel stays L1/L2-resident while a small register
// tile of C accumulates. The register microkernel is chosen per process by a
// runtime ISA dispatch (portable GNU-vector 4x8, AVX2/FMA 6x16, AVX-512F
// 8x16 — see gemm_kernels.h, docs/KERNELS.md, and the CIP_ISA override in
// common/env.h). Work is split across ParallelFor by row blocks, so every
// output element is written by exactly one thread.
//
// Determinism is per-ISA: within one bound ISA, results are bit-identical
// across thread counts and dispatch backends (row partitions never move a
// micro-tile boundary, and every element accumulates in ascending-k order).
// Across ISAs, results differ by normal float rounding (FMA contracts the
// multiply-add, wider tiles round the same sums through the same order but
// different contraction) — bounded against a sequential double-accumulated
// reference by k · ulp, which the parity tests pin per ISA.
//
// `Into` variants write to a caller-owned output (callers reuse scratch
// across training steps to avoid per-call allocation). The output must
// already have the result shape and must not alias either input.

/// C = A · B. A: [m,k], B: [k,n]. Returns a newly allocated [m,n] tensor.
Tensor Matmul(const Tensor& a, const Tensor& b);
/// C = A · Bᵀ. A: [m,k], B: [n,k]. Returns [m,n].
Tensor MatmulTransB(const Tensor& a, const Tensor& b);
/// C = Aᵀ · B. A: [k,m], B: [k,n]. Returns [m,n].
Tensor MatmulTransA(const Tensor& a, const Tensor& b);

/// C = A · B into a preallocated [m,n] tensor (overwritten, no aliasing).
void MatmulInto(const Tensor& a, const Tensor& b, Tensor& c);
/// C = A · Bᵀ into a preallocated [m,n] tensor (overwritten, no aliasing).
void MatmulTransBInto(const Tensor& a, const Tensor& b, Tensor& c);
/// C = Aᵀ · B into a preallocated [m,n] tensor (overwritten, no aliasing).
void MatmulTransAInto(const Tensor& a, const Tensor& b, Tensor& c);

// ---- weight prepacking -----------------------------------------------------
//
// Every blocked matmul first repacks B into nr-wide column panels, where nr
// is the panel width of the ISA microkernel bound for this process. When the
// same B is multiplied repeatedly without changing (a frozen weight matrix
// across an eval sweep), the packing pass can be hoisted out and paid once.
// nn::Linear caches a PackedB next to its weight and invalidates it via
// Tensor::version() *and* via isa() against ActiveGemmIsa(), since the panel
// layout is an ISA property.

/// IsaLevel of the GEMM microkernel bound for this process (binds on first
/// use; see gemm_kernels.h). PackedB caches key on this: a packing built
/// under one ISA must not be fed to another ISA's kernel.
IsaLevel ActiveGemmIsa();

/// Pre-packed right-hand side of a GEMM. Opaque storage produced by the
/// PackBFor* functions below; reusable (and reused, capacity kept) across
/// repacks. A default-constructed PackedB is empty(). The panel layout is
/// specific to the ISA that was bound when packing ran — MatmulPackedInto
/// rejects a stale layout, and callers invalidate via isa().
class PackedB {
 public:
  /// True until one of the PackBFor*Into functions has filled this object.
  bool empty() const { return k_ == 0; }
  /// Depth (rows of the logical B) this packing was built for.
  std::size_t k() const { return k_; }
  /// Columns of the logical B (columns of the product).
  std::size_t n() const { return n_; }
  /// ISA whose panel layout this packing uses. Meaningless while empty().
  IsaLevel isa() const { return isa_; }

 private:
  friend void PackBForMatmulInto(const Tensor& b, PackedB& out);
  friend void PackBForMatmulTransBInto(const Tensor& b, PackedB& out);
  friend void MatmulPackedInto(const Tensor& a, const PackedB& b, Tensor& c);

  std::vector<float> panels_;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t nr_ = 0;  // panel width the panels_ layout was built with
  IsaLevel isa_ = IsaLevel::kPortable;
};

/// Pack B ([k, n], Matmul orientation) into `out`, reusing its storage.
void PackBForMatmulInto(const Tensor& b, PackedB& out);
/// Pack B ([n, k] row-major, MatmulTransB orientation: C = A · Bᵀ) into
/// `out`, reusing its storage.
void PackBForMatmulTransBInto(const Tensor& b, PackedB& out);
/// C = A · B against a pre-packed B. A: [m, b.k()], C: [m, b.n()]
/// (preallocated, overwritten, no aliasing). Always runs the cache-blocked
/// kernel and is bit-identical to the blocked path of MatmulInto /
/// MatmulTransBInto under the same bound ISA; callers use
/// internal::UsesBlockedGemm to keep small products on the cheaper streaming
/// loops. CIP_CHECK-fails if b was packed under a different panel layout
/// than the bound kernel's (repack when isa() != ActiveGemmIsa()).
void MatmulPackedInto(const Tensor& a, const PackedB& b, Tensor& c);

namespace internal {

/// True when Matmul*Into for these dimensions takes the cache-blocked packed
/// kernel; below the threshold the plain streaming loops win and a PackedB
/// cache does not pay off. Layers consult this to decide whether to maintain
/// a prepacked weight.
bool UsesBlockedGemm(std::size_t m, std::size_t k, std::size_t n);

/// Capacity in bytes of the calling thread's GEMM scratch arena (packing +
/// transpose buffers, grow-once / reuse-forever). Test hook: stable across
/// calls once warmed up.
std::size_t GemmArenaBytes();

/// Number of panel-packing passes the calling thread has executed. Test
/// hook: stays flat across repeated calls when a PackedB cache hits.
std::uint64_t PackCount();

}  // namespace internal

// ---- convolution geometry and lowering (im2col / col2im) -------------------
//
// Im2Col unrolls each receptive field of an NCHW sample into one row of a
// column matrix, so a convolution becomes `col · Wᵀ`, and Col2Im scatters a
// column-matrix gradient back to image layout. nn::Conv2d does not lower
// (it uses the implicit-GEMM helpers below); the bitwise conv oracle in
// tests/ and the im2col probes in bench/ and cipbench/ are built from these.

/// Static geometry of a 2-D convolution over NCHW tensors with symmetric
/// zero padding. `kernel` must satisfy `kernel <= height + 2*pad` (same for
/// width) and `stride >= 1`.
struct Conv2dGeom {
  std::size_t in_channels = 0;
  std::size_t height = 0;  ///< input H
  std::size_t width = 0;   ///< input W
  std::size_t kernel = 0;  ///< square kernel extent K
  std::size_t stride = 1;
  std::size_t pad = 0;

  /// Output height: (H + 2·pad − K)/stride + 1.
  std::size_t OutH() const { return (height + 2 * pad - kernel) / stride + 1; }
  /// Output width: (W + 2·pad − K)/stride + 1.
  std::size_t OutW() const { return (width + 2 * pad - kernel) / stride + 1; }
  /// Receptive-field size C·K·K — the column count of the im2col matrix and
  /// the row length of a conv weight matrix [OC, C·K·K].
  std::size_t PatchSize() const { return in_channels * kernel * kernel; }

  /// Zero-padded extents Hp = H + 2·pad and Wp = W + 2·pad.
  std::size_t PaddedH() const { return height + 2 * pad; }
  std::size_t PaddedW() const { return width + 2 * pad; }
  /// Floats in one zero-padded sample buffer: C·Hp·Wp plus K + nr floats of
  /// zero tail, so stride-1 panel reads and tap scatters that run past the
  /// last padded row stay in bounds.
  std::size_t PaddedSize(std::size_t nr) const {
    return in_channels * PaddedH() * PaddedW() + kernel + nr;
  }
  /// Width of the implicit-GEMM output grid. Stride 1 computes whole padded
  /// rows (Wp columns, the first OutW of which are outputs), so every tap is
  /// one contiguous shift of the padded image; larger strides use OutW.
  std::size_t GridW() const { return stride == 1 ? PaddedW() : OutW(); }
  /// Columns of the implicit-GEMM output grid: OutH · GridW().
  std::size_t GridSize() const { return OutH() * GridW(); }
};

/// Lower sample `n_index` of an NCHW tensor `x` into rows
/// [row_offset, row_offset + OutH·OutW) of `col`, a matrix with
/// PatchSize() columns. Row (oy·OutW + ox) holds the receptive field of
/// output position (oy, ox) in C-major, then ky, then kx order; out-of-image
/// taps are written as 0. Every addressed element of `col` is overwritten.
/// NOT safe to call concurrently on a shared `col` even for disjoint row
/// ranges — each call bumps col's version counter unsynchronized.
/// `col` must not alias `x`.
void Im2ColInto(const Tensor& x, std::size_t n_index, const Conv2dGeom& g,
                Tensor& col, std::size_t row_offset = 0);

/// Allocating convenience wrapper: the [OutH·OutW, PatchSize()] im2col
/// matrix of one sample.
Tensor Im2Col(const Tensor& x, std::size_t n_index, const Conv2dGeom& g);

/// Adjoint of Im2ColInto: scatter-add rows [row_offset, row_offset+OutH·OutW)
/// of `col` back into sample `n_index` of the NCHW tensor `dx` (accumulating,
/// so `dx` must be zeroed by the caller first). Overlapping receptive fields
/// sum, which is exactly d(loss)/d(input) of the lowered convolution. NOT
/// safe to call concurrently on a shared `dx` (unsynchronized version bump,
/// as with Im2ColInto). `col` must not alias `dx`.
void Col2ImInto(const Tensor& col, std::size_t row_offset, const Conv2dGeom& g,
                Tensor& dx, std::size_t n_index);

// ---- implicit-GEMM convolution ---------------------------------------------
//
// nn::Conv2d runs each sample as C = A · B with B's nr-wide panels (nr = the
// bound GEMM kernel's panel width, gemm_kernels.h) filled straight from a
// zero-padded copy of the sample, so no im2col matrix exists. Forward is
// W[OC, C·K·K] · taps[C·K·K, grid]; dX is Wᵀ · grad-grid followed by a
// descending-tap scatter; dW is gradᵀ · taps over the whole batch, one
// column panel at a time. docs/KERNELS.md ("Packing layout") gives the
// layouts and why every result is bit-identical to the im2col lowering run
// through Matmul*Into. All helpers take pre-hoisted raw pointers, so they
// are safe to call per sample inside a parallel region; no pointer pair may
// alias.

/// Floats of nr-wide panel storage for a [k, n] right-hand side:
/// ceil(n / nr) panels of k rows × nr.
inline std::size_t PanelStorage(std::size_t k, std::size_t n, std::size_t nr) {
  return (n + nr - 1) / nr * nr * k;
}

/// Copy one C·H·W sample into `xpad` as C planes of Hp × Wp with a zero
/// border, followed by the zero tail; writes all g.PaddedSize(nr) floats.
void PadSampleInto(const float* x_sample, const Conv2dGeom& g, std::size_t nr,
                   float* xpad);

/// Inverse of PadSampleInto: copy the C·H·W interior of a padded sample out.
void UnpadSampleInto(const float* xpad, const Conv2dGeom& g, float* x_sample);

/// Forward B panels: B(p, j) = the padded input under tap p = (c, ky, kx) at
/// output-grid column j, i.e. xpad[c·Hp·Wp + ky·Wp + kx + offset(j)] with
/// offset(j) = j at stride 1 (one nr-float copy per panel row) and
/// (j / OutW)·stride·Wp + (j % OutW)·stride otherwise (a strided gather).
/// Writes PanelStorage(PatchSize(), GridSize(), nr) floats. At stride 1 the
/// lanes past GridSize() in the last panel hold padded-buffer values, which
/// the kernel never stores; otherwise they are zero.
void PackTapPanelsInto(const float* xpad, const Conv2dGeom& g, std::size_t nr,
                       float* panels);

/// Crop a [rows, GridSize()] product to [rows, OutH, OutW] and add
/// bias[row]: out = grid + bias, the forward's last step.
void CropGridInto(const float* grid, const Conv2dGeom& g, std::size_t rows,
                  const float* bias, float* out);

/// Panels of a [rows, GridSize()] grid matrix built from a dense
/// [rows, OutH, OutW] source (one sample of grad_out): the grid's padding
/// columns and the last panel's spare lanes are +0. Writes
/// PanelStorage(rows, GridSize(), nr) floats.
void PackGridPanelsInto(const float* src, std::size_t rows,
                        const Conv2dGeom& g, std::size_t nr, float* panels);

/// dX scatter: zero-fill a padded sample buffer (g.PaddedSize(nr) floats),
/// then add row p of the [PatchSize(), GridSize()] tap gradient onto the
/// padded image shifted by tap p, taps in (c, ky descending, kx descending)
/// order. For every input pixel that is exactly col2im's ascending-(oy, ox)
/// accumulation order.
void ScatterTapsInto(const float* dcol, const Conv2dGeom& g, std::size_t nr,
                     float* dxpad);

/// dW B panel: the nr tap columns [p0, p0 + nr) over every output position
/// of `samples` padded samples (consecutive, g.PaddedSize(nr) floats apart),
/// rows in ascending (sample, oy, ox) order with no grid padding columns —
/// im2col's rows, one column panel. Lanes past PatchSize() are zero. Writes
/// samples·OutH·OutW·nr floats.
void PackPatchPanelInto(const float* xpad_batch, std::size_t samples,
                        const Conv2dGeom& g, std::size_t p0, std::size_t nr,
                        float* panel);

/// Which streaming loop of Matmul*Into StreamingPanelGemm mirrors. Both
/// accumulate each element over ascending p from +0 with every product and
/// sum rounded (no FMA); they differ in operand order at the adds, which
/// decides which NaN survives when two meet.
enum class StreamingForm {
  kDot,        ///< MatmulTransBInto's per-element dot product
  kRowUpdate,  ///< MatmulInto/MatmulTransAInto's row update, zero A skipped
};

/// C[m, n] = A[m, k] · B over nr-wide panels with the plain loops
/// Matmul*Into use below the blocked threshold (internal::UsesBlockedGemm).
void StreamingPanelGemm(const float* a, std::size_t m, std::size_t k,
                        std::size_t n, const float* panels, std::size_t nr,
                        float* c, StreamingForm form);

// ---- softmax family --------------------------------------------------------

/// Row-wise softmax of a [n, c] matrix.
Tensor SoftmaxRows(const Tensor& logits);
/// Row-wise log-softmax of a [n, c] matrix.
Tensor LogSoftmaxRows(const Tensor& logits);

/// Mean cross-entropy of row-wise logits against integer labels, plus the
/// gradient w.r.t. logits (dL/dlogits for the *mean* loss) if grad != nullptr.
float SoftmaxCrossEntropy(const Tensor& logits, std::span<const int> labels,
                          Tensor* grad);

/// Per-sample cross-entropy losses (no reduction).
std::vector<float> PerSampleCrossEntropy(const Tensor& logits,
                                         std::span<const int> labels);

/// Row-wise argmax of a [n, c] matrix.
std::vector<int> ArgmaxRows(const Tensor& scores);

/// Backprop through a row-wise softmax: given probs p = softmax(logits) and
/// upstream dL/dp, returns dL/dlogits = p ⊙ (dp − ⟨dp, p⟩) per row.
Tensor SoftmaxBackwardRows(const Tensor& probs, const Tensor& dprobs);

}  // namespace cip::ops
