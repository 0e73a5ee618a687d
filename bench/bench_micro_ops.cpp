// Micro-benchmarks (google-benchmark) for the numeric kernels every
// experiment is built on: matmul (blocked GEMM, persistent-pool vs
// spawn-per-call dispatch), implicit-GEMM Conv2d vs the direct-loop reference
// convolution in tests/reference_conv.h,
// softmax/cross-entropy, the CIP blending function, and a full dual-channel
// forward/backward step. docs/BENCHMARKS.md explains how
// scripts/bench_baseline.sh turns this suite into the committed
// BENCH_kernels.json baseline.
//
// The JSON context carries a "cip_build_type" key ("release"/"debug") so
// tools/bench_to_json.py can refuse to bless a baseline produced by a
// non-Release build, plus "cip_isa" (the GEMM kernel the run actually bound)
// and "cip_isa_request" (what CIP_ISA asked for) so every committed number
// names the microkernel that produced it.
#include <benchmark/benchmark.h>

#include <atomic>

#include "common/env.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/blend.h"
#include "nn/backbones.h"
#include "nn/conv2d.h"
#include "reference_conv.h"
#include "tensor/ops.h"

namespace cip {
namespace {

Tensor RandomTensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal();
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// Same GEMM, spawn-per-call dispatch (internal::SetSpawnPerCallForTesting:
// the busy-pool fallback at full budget). The BM_Matmul/64-vs-
// BM_MatmulSpawn/64 ratio at CIP_THREADS=4 is the committed
// dispatch-overhead gate: the persistent pool must win by >= 1.3x.
void BM_MatmulSpawn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  internal::SetSpawnPerCallForTesting(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b));
  }
  internal::SetSpawnPerCallForTesting(false);
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_MatmulSpawn)->Arg(32)->Arg(64);

// GEMM against a pre-packed weight (the PackedB cache layers keep for frozen
// weights) — isolates the per-call packing pass BM_Matmul still pays.
void BM_MatmulPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  ops::PackedB packed;
  ops::PackBForMatmulInto(b, packed);
  Tensor c({n, n});
  for (auto _ : state) {
    ops::MatmulPackedInto(a, packed, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_MatmulPacked)->Arg(64)->Arg(256);

// Pure dispatch overhead: a ParallelForCoarse over 4 near-empty chunks with
// an explicit budget of 4. Measures wake/rendezvous latency of the pool
// (BM_ParallelForDispatch) against thread clone/join per call
// (BM_ParallelForDispatchSpawn).
void RunDispatchBench(benchmark::State& state, bool spawn_per_call) {
  internal::SetSpawnPerCallForTesting(spawn_per_call);
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    ParallelForCoarse(
        0, 4,
        [&](std::size_t i) { sink.fetch_add(i, std::memory_order_relaxed); },
        /*max_threads=*/4);
  }
  internal::SetSpawnPerCallForTesting(false);
  benchmark::DoNotOptimize(sink.load());
}

void BM_ParallelForDispatch(benchmark::State& state) {
  RunDispatchBench(state, /*spawn_per_call=*/false);
}
BENCHMARK(BM_ParallelForDispatch);

void BM_ParallelForDispatchSpawn(benchmark::State& state) {
  RunDispatchBench(state, /*spawn_per_call=*/true);
}
BENCHMARK(BM_ParallelForDispatchSpawn);

void BM_MatmulTransB(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = RandomTensor({n, n}, 1);
  const Tensor b = RandomTensor({n, n}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatmulTransB(a, b));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n * n * n));
}
BENCHMARK(BM_MatmulTransB)->Arg(64)->Arg(256);

// --- convolution: implicit-GEMM Conv2d vs the direct-loop reference --------
//
// Backbone-sized shape (batch 32, 3->32 channels, 32x32, k3 s1 p1). The
// committed BENCH_kernels.json records the GEMM/naive ratio at CIP_THREADS=1
// and 4; scripts/bench_baseline.sh regenerates it. The *Naive cases run
// tests/reference_conv.h on the layer's own weights; its forward spreads
// samples over ParallelFor like the layer does.

constexpr std::size_t kConvN = 32, kConvIC = 3, kConvOC = 32, kConvHW = 32;
constexpr std::size_t kConvK = 3, kConvStride = 1, kConvPad = 1;

nn::Conv2d MakeBenchConv() {
  Rng rng(13);
  return nn::Conv2d(kConvIC, kConvOC, kConvK, kConvStride, kConvPad, rng,
                    "bench_conv");
}

void SetConvItems(benchmark::State& state) {
  // One MAC = 2 flops; items = MACs of the convolution.
  state.SetItemsProcessed(
      static_cast<long>(state.iterations()) *
      static_cast<long>(kConvN * kConvOC * kConvHW * kConvHW * kConvIC * 9));
}

void BM_Conv2dForward(benchmark::State& state) {
  nn::Conv2d conv = MakeBenchConv();
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x, /*train=*/false));
  }
  SetConvItems(state);
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  nn::Conv2d conv = MakeBenchConv();
  const Tensor& w = conv.Parameters()[0]->value;
  const Tensor& b = conv.Parameters()[1]->value;
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testing::ReferenceConvForward(x, w, b, kConvK, kConvStride, kConvPad));
  }
  SetConvItems(state);
}
BENCHMARK(BM_Conv2dForwardNaive);

// Forward + backward per iteration. kAccumulate resets the gradients after
// each; kSkip is CIP Step I's conv backward (no db, padded-batch gather or
// dW).
void RunConv2dBackward(benchmark::State& state, nn::ParamGrads mode) {
  nn::Conv2d conv = MakeBenchConv();
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 15);
  const Tensor grad = RandomTensor({kConvN, kConvOC, kConvHW, kConvHW}, 16);
  for (auto _ : state) {
    conv.Forward(x, /*train=*/true);
    benchmark::DoNotOptimize(conv.Backward(grad, mode));
    if (mode == nn::ParamGrads::kAccumulate) conv.ZeroGrad();
  }
}

void BM_Conv2dBackward(benchmark::State& state) {
  RunConv2dBackward(state, nn::ParamGrads::kAccumulate);
}
BENCHMARK(BM_Conv2dBackward);

void BM_Conv2dBackwardInputOnly(benchmark::State& state) {
  RunConv2dBackward(state, nn::ParamGrads::kSkip);
}
BENCHMARK(BM_Conv2dBackwardInputOnly);

// Forward + backward + gradient reset per iteration, like BM_Conv2dBackward.
void BM_Conv2dBackwardNaive(benchmark::State& state) {
  nn::Conv2d conv = MakeBenchConv();
  const Tensor& w = conv.Parameters()[0]->value;
  const Tensor& b = conv.Parameters()[1]->value;
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 15);
  const Tensor grad = RandomTensor({kConvN, kConvOC, kConvHW, kConvHW}, 16);
  Tensor dw(w.shape()), db(b.shape());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testing::ReferenceConvForward(x, w, b, kConvK, kConvStride, kConvPad));
    benchmark::DoNotOptimize(testing::ReferenceConvBackward(
        x, w, grad, kConvK, kConvStride, kConvPad, dw, db));
    dw.Zero();
    db.Zero();
  }
}
BENCHMARK(BM_Conv2dBackwardNaive);

void BM_Im2Col(benchmark::State& state) {
  const ops::Conv2dGeom g{kConvIC, kConvHW, kConvHW, 3, 1, 1};
  const Tensor x = RandomTensor({kConvN, kConvIC, kConvHW, kConvHW}, 17);
  Tensor col({kConvN * g.OutH() * g.OutW(), g.PatchSize()});
  for (auto _ : state) {
    for (std::size_t i = 0; i < kConvN; ++i) {
      ops::Im2ColInto(x, i, g, col, i * g.OutH() * g.OutW());
    }
    benchmark::DoNotOptimize(col.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(col.size()));
}
BENCHMARK(BM_Im2Col);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor logits = RandomTensor({n, 50}, 3);
  std::vector<int> labels(n, 7);
  Tensor grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ops::SoftmaxCrossEntropy(logits, labels, &grad));
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy)->Arg(32)->Arg(256);

void BM_Blend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Tensor x = RandomTensor({n, 3, 12, 12}, 4);
  ops::ClipInPlace(x, 0.0f, 1.0f);
  Tensor t = RandomTensor({3, 12, 12}, 5);
  ops::ClipInPlace(t, 0.0f, 1.0f);
  core::BlendConfig cfg;
  cfg.alpha = 0.5f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Blend(x, t, cfg));
  }
}
BENCHMARK(BM_Blend)->Arg(32)->Arg(256);

// One dual-channel step (width range(0), batch 32): forward + backward in
// `mode`. kAccumulate is a training step (gradients reset after each);
// kSkip is one CIP Step I step's model work (θ fixed).
void RunDualChannelStep(benchmark::State& state, nn::ParamGrads mode) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kResNet;
  spec.input_shape = {3, 12, 12};
  spec.num_classes = 20;
  spec.width = static_cast<std::size_t>(state.range(0));
  spec.seed = 6;
  auto model = nn::MakeDualChannelClassifier(spec);
  const Tensor x1 = RandomTensor({32, 3, 12, 12}, 7);
  const Tensor x2 = RandomTensor({32, 3, 12, 12}, 8);
  std::vector<int> labels(32, 3);
  for (auto _ : state) {
    const Tensor logits = model->Forward(x1, x2, true);
    Tensor dlogits;
    ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
    benchmark::DoNotOptimize(model->Backward(dlogits, mode));
    if (mode == nn::ParamGrads::kAccumulate) model->ZeroGrad();
  }
}

void BM_DualChannelTrainStep(benchmark::State& state) {
  RunDualChannelStep(state, nn::ParamGrads::kAccumulate);
}
BENCHMARK(BM_DualChannelTrainStep)->Arg(8)->Arg(12);

void BM_DualChannelStepIStep(benchmark::State& state) {
  RunDualChannelStep(state, nn::ParamGrads::kSkip);
}
BENCHMARK(BM_DualChannelStepIStep)->Arg(8)->Arg(12);

void BM_SingleChannelTrainStep(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kResNet;
  spec.input_shape = {3, 12, 12};
  spec.num_classes = 20;
  spec.width = static_cast<std::size_t>(state.range(0));
  spec.seed = 9;
  auto model = nn::MakeClassifier(spec);
  const Tensor x = RandomTensor({32, 3, 12, 12}, 10);
  std::vector<int> labels(32, 3);
  for (auto _ : state) {
    const Tensor logits = model->Forward(x, true);
    Tensor dlogits;
    ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
    benchmark::DoNotOptimize(model->Backward(dlogits));
    model->ZeroGrad();
  }
}
BENCHMARK(BM_SingleChannelTrainStep)->Arg(8)->Arg(12);

}  // namespace
}  // namespace cip

// Hand-rolled BENCHMARK_MAIN so the JSON context records whether this binary
// was compiled with optimizations: the committed baseline must come from a
// Release build (tools/bench_to_json.py enforces it via this key).
namespace {

const char* IsaRequestName(cip::IsaRequest request) {
  switch (request) {
    case cip::IsaRequest::kPortable:
      return "portable";
    case cip::IsaRequest::kAvx2:
      return "avx2";
    case cip::IsaRequest::kAvx512:
      return "avx512";
    case cip::IsaRequest::kAuto:
      break;
  }
  return "auto";
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("cip_build_type", "release");
#else
  benchmark::AddCustomContext("cip_build_type", "debug");
#endif
  benchmark::AddCustomContext("cip_isa",
                              cip::IsaName(cip::ops::ActiveGemmIsa()));
  benchmark::AddCustomContext("cip_isa_request",
                              IsaRequestName(cip::IsaRequested()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
