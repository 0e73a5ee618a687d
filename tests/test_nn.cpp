// Gradient-check tests for every layer and for the composed classifiers.
// Each analytic backward pass is compared against central differences on a
// scalar loss, for both parameters and inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/backbones.h"
#include "nn/classifier.h"
#include "nn/conv2d.h"
#include "nn/dual_channel.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace cip {
namespace {

using nn::Module;
using nn::Parameter;

/// Scalar "loss" = dot(output, fixed random direction). Its gradient w.r.t.
/// the output is the direction, making analytic backprop easy to drive.
struct ProbeLoss {
  Tensor direction;

  explicit ProbeLoss(const Shape& out_shape, Rng& rng)
      : direction(out_shape) {
    for (float& v : direction.flat()) v = rng.Normal();
  }
  double operator()(const Tensor& out) const {
    return ops::Dot(out, direction);
  }
};

/// Checks d(dot(module(x), dir))/d· against numeric for input and params.
void GradCheckModule(Module& module, Tensor x, Rng& rng,
                     double tol = 2e-2) {
  Tensor probe_out = module.Forward(x, /*train=*/false);
  module.ClearCache();
  ProbeLoss loss(probe_out.shape(), rng);

  auto eval = [&] {
    const Tensor out = module.Forward(x, /*train=*/false);
    return loss(out);
  };

  Tensor out = module.Forward(x, /*train=*/true);
  Tensor dx = module.Backward(loss.direction);
  ASSERT_TRUE(dx.SameShape(x));

  // Input gradient: check a sample of elements.
  Rng pick(42);
  const std::size_t n_input_checks = std::min<std::size_t>(x.size(), 20);
  for (std::size_t k = 0; k < n_input_checks; ++k) {
    const std::size_t i = pick.Index(x.size());
    EXPECT_LT(testing::NumericGradError(eval, x, i, dx[i]), tol)
        << "input grad " << i << " analytic " << dx[i];
  }
  // Parameter gradients.
  for (Parameter* p : module.Parameters()) {
    const std::size_t n_checks = std::min<std::size_t>(p->value.size(), 12);
    for (std::size_t k = 0; k < n_checks; ++k) {
      const std::size_t i = pick.Index(p->value.size());
      EXPECT_LT(testing::NumericGradError(eval, p->value, i, p->grad[i]), tol)
          << p->name << "[" << i << "] analytic " << p->grad[i];
    }
  }
  module.ZeroGrad();
}

Tensor RandomTensor(const Shape& shape, Rng& rng, float scale = 1.0f) {
  Tensor t(shape);
  for (float& v : t.flat()) v = rng.Normal(0.0f, scale);
  return t;
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  nn::Linear layer(5, 3, rng);
  GradCheckModule(layer, RandomTensor({4, 5}, rng), rng);
}

TEST(GradCheck, Conv2dStride1Pad1) {
  Rng rng(2);
  nn::Conv2d layer(2, 3, 3, 1, 1, rng);
  GradCheckModule(layer, RandomTensor({2, 2, 5, 5}, rng), rng);
}

TEST(GradCheck, Conv2dStride2NoPad) {
  Rng rng(3);
  nn::Conv2d layer(1, 2, 3, 2, 0, rng);
  GradCheckModule(layer, RandomTensor({2, 1, 7, 7}, rng), rng);
}

TEST(GradCheck, Conv2d1x1) {
  Rng rng(4);
  nn::Conv2d layer(3, 2, 1, 1, 0, rng);
  GradCheckModule(layer, RandomTensor({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, ReLU) {
  Rng rng(5);
  nn::ReLU layer;
  // Offset inputs away from the kink so central differences are valid.
  Tensor x = RandomTensor({3, 6}, rng);
  for (float& v : x.flat()) {
    if (std::abs(v) < 0.05f) v = 0.2f;
  }
  GradCheckModule(layer, x, rng);
}

TEST(GradCheck, AvgPool) {
  Rng rng(6);
  nn::AvgPool2d layer(2);
  GradCheckModule(layer, RandomTensor({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, MaxPool) {
  Rng rng(7);
  nn::MaxPool2d layer(2);
  // Spread values so the argmax does not flip under the probe epsilon.
  Tensor x = RandomTensor({2, 2, 4, 4}, rng, 3.0f);
  GradCheckModule(layer, x, rng);
}

TEST(GradCheck, GlobalAvgPoolImage) {
  Rng rng(8);
  nn::GlobalAvgPool layer;
  GradCheckModule(layer, RandomTensor({2, 3, 4, 4}, rng), rng);
}

TEST(GradCheck, GlobalAvgPoolVectorPassthrough) {
  Rng rng(9);
  nn::GlobalAvgPool layer;
  Tensor x = RandomTensor({3, 5}, rng);
  const Tensor y = layer.Forward(x, false);
  EXPECT_TRUE(y.SameShape(x));
  GradCheckModule(layer, x, rng);
}

TEST(GradCheck, ResidualBlock) {
  Rng rng(10);
  auto inner = std::make_unique<nn::Sequential>();
  inner->Add(std::make_unique<nn::Conv2d>(2, 2, 3, 1, 1, rng, "c"));
  nn::Residual layer(std::move(inner));
  GradCheckModule(layer, RandomTensor({2, 2, 4, 4}, rng), rng);
}

TEST(GradCheck, DenseConcatBlock) {
  Rng rng(11);
  auto inner = std::make_unique<nn::Sequential>();
  inner->Add(std::make_unique<nn::Conv2d>(2, 3, 3, 1, 1, rng, "c"));
  nn::DenseConcat layer(std::move(inner));
  Tensor x = RandomTensor({2, 2, 4, 4}, rng);
  const Tensor y = layer.Forward(x, false);
  EXPECT_EQ(y.dim(1), 5u);  // 2 input + 3 grown channels
  GradCheckModule(layer, x, rng);
}

TEST(GradCheck, SequentialStack) {
  Rng rng(12);
  auto seq = std::make_unique<nn::Sequential>();
  seq->Add(std::make_unique<nn::Conv2d>(1, 2, 3, 1, 1, rng, "c1"))
      .Add(std::make_unique<nn::ReLU>())
      .Add(std::make_unique<nn::MaxPool2d>(2));
  GradCheckModule(*seq, RandomTensor({2, 1, 4, 4}, rng, 2.0f), rng);
}

// ---- full classifiers -------------------------------------------------------

/// Gradcheck a classifier's cross-entropy loss w.r.t. inputs and a parameter
/// sample.
void GradCheckClassifier(nn::Classifier& model, Tensor x,
                         const std::vector<int>& labels, double tol = 3e-2) {
  auto eval = [&] {
    const Tensor logits = model.Forward(x, false);
    return ops::SoftmaxCrossEntropy(logits, labels, nullptr);
  };
  const Tensor logits = model.Forward(x, true);
  Tensor dlogits;
  ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
  const Tensor dx = model.Backward(dlogits);

  Rng pick(99);
  for (std::size_t k = 0; k < 10; ++k) {
    const std::size_t i = pick.Index(x.size());
    EXPECT_LT(testing::NumericGradError(eval, x, i, dx[i]), tol)
        << "input " << i;
  }
  const std::vector<nn::Parameter*> params = model.Parameters();
  for (std::size_t pi = 0; pi < params.size(); pi += 3) {
    nn::Parameter* p = params[pi];
    const std::size_t i = pick.Index(p->value.size());
    EXPECT_LT(testing::NumericGradError(eval, p->value, i, p->grad[i]), tol)
        << p->name;
  }
  model.ZeroGrad();
}

nn::ModelSpec TinyImageSpec(nn::Arch arch) {
  nn::ModelSpec spec;
  spec.arch = arch;
  spec.input_shape = {2, 8, 8};
  spec.num_classes = 4;
  spec.width = 4;
  spec.seed = 21;
  return spec;
}

TEST(GradCheck, ResNetClassifier) {
  Rng rng(13);
  auto model = nn::MakeClassifier(TinyImageSpec(nn::Arch::kResNet));
  GradCheckClassifier(*model, RandomTensor({2, 2, 8, 8}, rng), {1, 3});
}

TEST(GradCheck, DenseNetClassifier) {
  Rng rng(14);
  auto model = nn::MakeClassifier(TinyImageSpec(nn::Arch::kDenseNet));
  GradCheckClassifier(*model, RandomTensor({2, 2, 8, 8}, rng), {0, 2});
}

TEST(GradCheck, VggClassifier) {
  Rng rng(15);
  auto model = nn::MakeClassifier(TinyImageSpec(nn::Arch::kVGG));
  GradCheckClassifier(*model, RandomTensor({2, 2, 8, 8}, rng), {2, 1});
}

TEST(GradCheck, MlpClassifier) {
  Rng rng(16);
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {10};
  spec.num_classes = 3;
  spec.width = 4;
  auto model = nn::MakeClassifier(spec);
  GradCheckClassifier(*model, RandomTensor({3, 10}, rng), {0, 1, 2});
}

// ---- dual-channel specifics --------------------------------------------------

TEST(DualChannel, SharedBackboneGradientsMatchNumeric) {
  Rng rng(17);
  auto model = nn::MakeDualChannelClassifier(TinyImageSpec(nn::Arch::kResNet));
  Tensor x1 = RandomTensor({2, 2, 8, 8}, rng);
  Tensor x2 = RandomTensor({2, 2, 8, 8}, rng);
  const std::vector<int> labels = {1, 2};

  auto eval = [&] {
    const Tensor logits = model->Forward(x1, x2, false);
    return ops::SoftmaxCrossEntropy(logits, labels, nullptr);
  };
  const Tensor logits = model->Forward(x1, x2, true);
  Tensor dlogits;
  ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
  auto [dx1, dx2] = model->Backward(dlogits);

  Rng pick(7);
  for (std::size_t k = 0; k < 8; ++k) {
    const std::size_t i = pick.Index(x1.size());
    EXPECT_LT(testing::NumericGradError(eval, x1, i, dx1[i]), 3e-2)
        << "dx1[" << i << "]";
    const std::size_t j = pick.Index(x2.size());
    EXPECT_LT(testing::NumericGradError(eval, x2, j, dx2[j]), 3e-2)
        << "dx2[" << j << "]";
  }
  // Shared-backbone parameter gradients accumulate over both channels.
  const std::vector<nn::Parameter*> params = model->Parameters();
  for (std::size_t pi = 0; pi < params.size(); pi += 4) {
    nn::Parameter* p = params[pi];
    const std::size_t i = pick.Index(p->value.size());
    EXPECT_LT(testing::NumericGradError(eval, p->value, i, p->grad[i]), 3e-2)
        << p->name;
  }
}

TEST(DualChannel, HeadWidthIsDoubleFeatureDim) {
  auto dual = nn::MakeDualChannelClassifier(TinyImageSpec(nn::Arch::kVGG));
  auto single = nn::MakeClassifier(TinyImageSpec(nn::Arch::kVGG));
  // Same backbone: dual adds only (feature_dim * classes) extra head weights.
  const std::size_t extra =
      dual->ParameterCount() - single->ParameterCount();
  EXPECT_EQ(extra, dual->feature_dim() * dual->num_classes());
}

TEST(DualChannel, DeterministicInitFromSpec) {
  const nn::ModelSpec spec = TinyImageSpec(nn::Arch::kDenseNet);
  auto a = nn::MakeDualChannelClassifier(spec);
  auto b = nn::MakeDualChannelClassifier(spec);
  const auto pa = a->Parameters();
  const auto pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size());
    for (std::size_t j = 0; j < pa[i]->value.size(); ++j) {
      EXPECT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
}

TEST(Module, BackwardWithoutForwardThrows) {
  Rng rng(18);
  nn::Linear layer(3, 2, rng);
  Tensor g({1, 2});
  EXPECT_THROW(layer.Backward(g), CheckError);
}

TEST(Module, ParameterCountMatchesManualCount) {
  Rng rng(19);
  nn::Linear layer(5, 3, rng);
  EXPECT_EQ(layer.ParameterCount(), 5u * 3u + 3u);
  nn::Conv2d conv(2, 4, 3, 1, 1, rng);
  EXPECT_EQ(conv.ParameterCount(), 4u * 2u * 9u + 4u);
}

// ---- inference path ----------------------------------------------------------

// Inference goes through EvalForward; it must equal Forward(x, false) to the
// byte for every model the backbone factory builds, single- and
// dual-channel, across a batch-size change (eval buffers are reused) and a
// weight change (the conv's packed-weight cache is rebuilt).

void ExpectSameBytes(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what;
}

/// Multiplies every parameter by 0.5, bumping each tensor's version.
template <typename Model>
void HalveWeights(Model& model) {
  for (nn::Parameter* p : model.Parameters()) {
    for (float& v : p->value.flat()) v *= 0.5f;
  }
}

std::vector<nn::ModelSpec> EveryBackboneSpec() {
  std::vector<nn::ModelSpec> specs;
  for (const nn::Arch arch :
       {nn::Arch::kResNet, nn::Arch::kDenseNet, nn::Arch::kVGG}) {
    nn::ModelSpec spec = TinyImageSpec(arch);
    specs.push_back(spec);
    // Large enough for the conv GEMMs to take the blocked, prepacked path.
    spec.input_shape = {3, 16, 16};
    spec.width = 8;
    specs.push_back(spec);
  }
  nn::ModelSpec mlp;
  mlp.arch = nn::Arch::kMLP;
  mlp.input_shape = {10};
  mlp.num_classes = 3;
  mlp.width = 4;
  specs.push_back(mlp);
  return specs;
}

Shape BatchShape(const nn::ModelSpec& spec, std::size_t n) {
  Shape shape{n};
  shape.insert(shape.end(), spec.input_shape.begin(), spec.input_shape.end());
  return shape;
}

TEST(EvalForward, ClassifierMatchesForwardBytewiseForEveryBackbone) {
  for (const nn::ModelSpec& spec : EveryBackboneSpec()) {
    SCOPED_TRACE(nn::ArchName(spec.arch) + " " +
                 ShapeToString(spec.input_shape));
    auto model = nn::MakeClassifier(spec);
    Rng rng(31);
    const Tensor big = RandomTensor(BatchShape(spec, 6), rng);
    const Tensor small = RandomTensor(BatchShape(spec, 3), rng);

    const Tensor eval_big = model->EvalForward(big);
    ExpectSameBytes(eval_big, model->Forward(big, false), "batch 6");
    const Tensor fwd_small = model->Forward(small, false);
    ExpectSameBytes(model->EvalForward(small), fwd_small, "batch 3");
    HalveWeights(*model);
    const Tensor eval_new = model->EvalForward(big);
    ExpectSameBytes(eval_new, model->Forward(big, false), "new weights");
  }
}

TEST(EvalForward, DualChannelMatchesForwardBytewiseForEveryBackbone) {
  for (const nn::ModelSpec& spec : EveryBackboneSpec()) {
    SCOPED_TRACE(nn::ArchName(spec.arch) + " " +
                 ShapeToString(spec.input_shape));
    auto model = nn::MakeDualChannelClassifier(spec);
    Rng rng(32);
    const Tensor a1 = RandomTensor(BatchShape(spec, 6), rng);
    const Tensor a2 = RandomTensor(BatchShape(spec, 6), rng);
    const Tensor b1 = RandomTensor(BatchShape(spec, 3), rng);
    const Tensor b2 = RandomTensor(BatchShape(spec, 3), rng);

    const Tensor eval_a = model->EvalForward(a1, a2);
    ExpectSameBytes(eval_a, model->Forward(a1, a2, false), "batch 6");
    const Tensor fwd_b = model->Forward(b1, b2, false);
    ExpectSameBytes(model->EvalForward(b1, b2), fwd_b, "batch 3");
    HalveWeights(*model);
    const Tensor eval_new = model->EvalForward(a1, a2);
    ExpectSameBytes(eval_new, model->Forward(a1, a2, false), "new weights");
  }
}


// ---- input-gradient-only backward -------------------------------------------

// Backward(g, kSkip) must return the same dX bytes as Backward(g,
// kAccumulate) and leave every Parameter::grad byte-for-byte as it found it.
// The accumulators are pre-filled with non-zero values, so both a stray
// accumulation and a stray zeroing show.

/// Overwrites every gradient accumulator with non-zero values; returns a
/// copy of them.
template <typename Model>
std::vector<Tensor> FillGradsNonZero(Model& model, Rng& rng) {
  std::vector<Tensor> filled;
  for (nn::Parameter* p : model.Parameters()) {
    for (float& g : p->grad.flat()) g = 1.0f + std::abs(rng.Normal());
    filled.push_back(p->grad);
  }
  return filled;
}

template <typename Model>
void ExpectGradsEqual(Model& model, const std::vector<Tensor>& expected) {
  const std::vector<nn::Parameter*> params = model.Parameters();
  ASSERT_EQ(params.size(), expected.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ExpectSameBytes(params[i]->grad, expected[i], params[i]->name.c_str());
  }
}

template <typename Model>
std::vector<Tensor> GradsOf(Model& model) {
  std::vector<Tensor> out;
  for (const nn::Parameter* p : model.Parameters()) out.push_back(p->grad);
  return out;
}

/// Runs Forward + Backward on `module` three times with the same input and
/// upstream gradient: kAccumulate from zero grads, kSkip from non-zero
/// grads, then kAccumulate from zero grads again (a kSkip pass must not
/// leave scratch state that changes a later accumulation).
void ExpectSkipMatchesAccumulate(Module& module, const Tensor& x) {
  Rng rng(51);
  module.ZeroGrad();
  const Tensor g = RandomTensor(module.Forward(x, false).shape(), rng);

  module.Forward(x, /*train=*/true);
  const Tensor dx_acc = module.Backward(g, nn::ParamGrads::kAccumulate);
  const std::vector<Tensor> grads_acc = GradsOf(module);

  const std::vector<Tensor> filled = FillGradsNonZero(module, rng);
  module.Forward(x, /*train=*/true);
  const Tensor dx_skip = module.Backward(g, nn::ParamGrads::kSkip);
  ExpectSameBytes(dx_skip, dx_acc, "dX");
  ExpectGradsEqual(module, filled);

  module.ZeroGrad();
  module.Forward(x, /*train=*/true);
  module.Backward(g);
  ExpectGradsEqual(module, grads_acc);
}

TEST(SkipParamGrads, Conv2dStrideAndPaddingVariants) {
  struct Case {
    std::size_t ic, oc, k, stride, pad, n, hw;
  };
  // The last case is large enough for the blocked GEMM.
  for (const Case c : {Case{3, 4, 3, 1, 1, 2, 6}, Case{2, 3, 3, 2, 0, 2, 7},
                       Case{3, 5, 1, 1, 0, 3, 4}, Case{2, 4, 5, 2, 2, 2, 9},
                       Case{8, 16, 3, 1, 1, 8, 12}}) {
    SCOPED_TRACE(::testing::Message() << "k" << c.k << " s" << c.stride
                                      << " p" << c.pad << " ic" << c.ic);
    Rng rng(52);
    nn::Conv2d conv(c.ic, c.oc, c.k, c.stride, c.pad, rng);
    ExpectSkipMatchesAccumulate(conv, RandomTensor({c.n, c.ic, c.hw, c.hw},
                                                   rng));
  }
}

TEST(SkipParamGrads, Linear) {
  Rng rng(53);
  nn::Linear small(7, 5, rng);
  ExpectSkipMatchesAccumulate(small, RandomTensor({3, 7}, rng));
  nn::Linear big(96, 64, rng);  // blocked GEMM regime
  ExpectSkipMatchesAccumulate(big, RandomTensor({32, 96}, rng));
}

TEST(SkipParamGrads, ResidualDenseConcatAndSequential) {
  Rng rng(54);
  auto res_inner = std::make_unique<nn::Sequential>();
  res_inner->Add(std::make_unique<nn::Conv2d>(2, 2, 3, 1, 1, rng, "c"))
      .Add(std::make_unique<nn::ReLU>());
  nn::Residual residual(std::move(res_inner));
  ExpectSkipMatchesAccumulate(residual, RandomTensor({2, 2, 5, 5}, rng));

  auto dense_inner = std::make_unique<nn::Sequential>();
  dense_inner->Add(std::make_unique<nn::Conv2d>(2, 3, 3, 1, 1, rng, "c"));
  nn::DenseConcat dense(std::move(dense_inner));
  ExpectSkipMatchesAccumulate(dense, RandomTensor({2, 2, 4, 4}, rng));

  nn::Sequential seq;
  seq.Add(std::make_unique<nn::Conv2d>(1, 3, 3, 1, 1, rng, "c1"))
      .Add(std::make_unique<nn::ReLU>())
      .Add(std::make_unique<nn::MaxPool2d>(2))
      .Add(std::make_unique<nn::Flatten>())
      .Add(std::make_unique<nn::Linear>(12, 4, rng, "fc"));
  ExpectSkipMatchesAccumulate(seq, RandomTensor({2, 1, 4, 4}, rng, 2.0f));
}

TEST(SkipParamGrads, DualChannelEveryBackbone) {
  for (const nn::ModelSpec& spec : EveryBackboneSpec()) {
    SCOPED_TRACE(nn::ArchName(spec.arch) + " " +
                 ShapeToString(spec.input_shape));
    auto model = nn::MakeDualChannelClassifier(spec);
    Rng rng(55);
    const Tensor x1 = RandomTensor(BatchShape(spec, 5), rng);
    const Tensor x2 = RandomTensor(BatchShape(spec, 5), rng);
    const Tensor dlogits =
        RandomTensor(model->Forward(x1, x2, false).shape(), rng);

    model->Forward(x1, x2, /*train=*/true);
    const auto [dx1_acc, dx2_acc] =
        model->Backward(dlogits, nn::ParamGrads::kAccumulate);
    const std::vector<Tensor> grads_acc = GradsOf(*model);

    const std::vector<Tensor> filled = FillGradsNonZero(*model, rng);
    model->Forward(x1, x2, /*train=*/true);
    const auto [dx1_skip, dx2_skip] =
        model->Backward(dlogits, nn::ParamGrads::kSkip);
    ExpectSameBytes(dx1_skip, dx1_acc, "dx1");
    ExpectSameBytes(dx2_skip, dx2_acc, "dx2");
    ExpectGradsEqual(*model, filled);

    model->ZeroGrad();
    model->Forward(x1, x2, /*train=*/true);
    model->Backward(dlogits);
    ExpectGradsEqual(*model, grads_acc);
  }
}

// ---- ReLU -------------------------------------------------------------------

TEST(ReLU, MatchesBranchyExpressionBytewiseOnSpecialValues) {
  const float specials[] = {-0.0f,
                            0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1.0f,
                            -1.0f};
  // 37 elements: full vector blocks plus a scalar tail.
  Tensor x({37});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = specials[i % 8];
  Tensor want_y(x.shape()), want_mask(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    want_y[i] = x[i] > 0.0f ? x[i] : 0.0f;
    want_mask[i] = x[i] > 0.0f ? 1.0f : 0.0f;
  }

  nn::ReLU relu;
  ExpectSameBytes(relu.Forward(x, /*train=*/false), want_y, "eval forward");
  ExpectSameBytes(relu.EvalForward(x), want_y, "EvalForward");
  ExpectSameBytes(relu.Forward(x, /*train=*/true), want_y, "train forward");
  Tensor ones(x.shape());
  ones.Fill(1.0f);
  // Backward multiplies by the cached mask, so 1·mask gives its bytes.
  ExpectSameBytes(relu.Backward(ones), want_mask, "mask");
}

}  // namespace
}  // namespace cip
