// CIP core tests: the blending function (Eq. 2), the analytic d(loss)/dt
// used by Step I, perturbation optimization, the CIP client round, and the
// Theorem-1 formulas.
#include <gtest/gtest.h>

#include <cstring>

#include "core/blend.h"
#include "core/cip_client.h"
#include "core/cip_model.h"
#include "core/theory.h"
#include "data/synthetic.h"
#include "tensor/ops.h"
#include "testing_util.h"

namespace cip {
namespace {

TEST(Blend, MatchesEquation2) {
  // x = [0.4, 0.6], t = [0.2, 0.8], α = 0.5, no clipping active.
  Tensor x({1, 2}, std::vector<float>{0.4f, 0.6f});
  Tensor t = Tensor::FromList({0.2f, 0.8f});
  core::BlendConfig cfg;
  cfg.alpha = 0.5f;
  const core::Blended b = core::Blend(x, t, cfg);
  EXPECT_NEAR(b.c1[0], 0.5f * 0.4f + 0.5f * 0.2f, 1e-6f);
  EXPECT_NEAR(b.c1[1], 0.5f * 0.6f + 0.5f * 0.8f, 1e-6f);
  EXPECT_NEAR(b.c2[0], 1.5f * 0.4f - 0.5f * 0.2f, 1e-6f);
  EXPECT_NEAR(b.c2[1], 1.5f * 0.6f - 0.5f * 0.8f, 1e-6f);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(b.mask1[i], 1.0f);
    EXPECT_EQ(b.mask2[i], 1.0f);
  }
}

TEST(Blend, AlphaZeroDuplicatesInput) {
  Tensor x({1, 3}, std::vector<float>{0.1f, 0.5f, 0.9f});
  Tensor t = Tensor::FromList({0.7f, 0.7f, 0.7f});
  core::BlendConfig cfg;
  cfg.alpha = 0.0f;
  const core::Blended b = core::Blend(x, t, cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(b.c1[i], x[i]);
    EXPECT_FLOAT_EQ(b.c2[i], x[i]);
  }
}

TEST(Blend, ClipsAndMasksSaturation) {
  // (1+α)x − αt can exceed 1: x=0.9, t=0, α=0.5 → 1.35 → clipped to 1.
  Tensor x({1, 1}, std::vector<float>{0.9f});
  Tensor t = Tensor::FromList({0.0f});
  core::BlendConfig cfg;
  cfg.alpha = 0.5f;
  const core::Blended b = core::Blend(x, t, cfg);
  EXPECT_FLOAT_EQ(b.c2[0], 1.0f);
  EXPECT_EQ(b.mask2[0], 0.0f);
  EXPECT_EQ(b.mask1[0], 1.0f);
}

TEST(Blend, EmptyTMeansZero) {
  Tensor x({2, 2}, std::vector<float>{0.2f, 0.4f, 0.6f, 0.8f});
  core::BlendConfig cfg;
  cfg.alpha = 0.3f;
  const core::Blended b = core::Blend(x, Tensor(), cfg);
  EXPECT_NEAR(b.c1[0], 0.7f * 0.2f, 1e-6f);
  // (1+α)·0.8 = 1.04 exceeds the input range and is clipped.
  EXPECT_FLOAT_EQ(b.c2[3], 1.0f);
  EXPECT_EQ(b.mask2[3], 0.0f);
}

TEST(Blend, BroadcastsAcrossBatch) {
  Tensor x({3, 2}, std::vector<float>{0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f});
  Tensor t = Tensor::FromList({0.5f, 0.5f});
  core::BlendConfig cfg;
  cfg.alpha = 0.4f;
  const core::Blended b = core::Blend(x, t, cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(b.c1[i * 2], 0.6f * x[i * 2] + 0.4f * 0.5f, 1e-6f);
  }
}

TEST(Blend, RejectsWrongTSize) {
  Tensor x({1, 4});
  Tensor t = Tensor::FromList({0.5f});
  core::BlendConfig cfg;
  EXPECT_THROW(core::Blend(x, t, cfg), CheckError);
}

nn::ModelSpec TinySpec(std::size_t classes = 4) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {6};
  spec.num_classes = classes;
  spec.width = 4;
  spec.seed = 31;
  return spec;
}

TEST(BlendGradT, MatchesNumericGradient) {
  Rng rng(1);
  auto model = nn::MakeDualChannelClassifier(TinySpec());
  Tensor x({3, 6});
  for (float& v : x.flat()) v = rng.Uniform(0.2f, 0.8f);
  Tensor t({6});
  for (float& v : t.flat()) v = rng.Uniform(0.3f, 0.7f);
  const std::vector<int> labels = {0, 2, 1};
  core::BlendConfig cfg;
  cfg.alpha = 0.5f;

  auto eval = [&] {
    const core::Blended b = core::Blend(x, t, cfg);
    const Tensor logits = model->Forward(b.c1, b.c2, false);
    return ops::SoftmaxCrossEntropy(logits, labels, nullptr);
  };
  const core::Blended b = core::Blend(x, t, cfg);
  const Tensor logits = model->Forward(b.c1, b.c2, true);
  Tensor dlogits;
  ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
  auto [g1, g2] = model->Backward(dlogits);
  model->ZeroGrad();
  const Tensor gt = core::BlendGradT(b, g1, g2, cfg.alpha);
  ASSERT_EQ(gt.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_LT(testing::NumericGradError(eval, t, i, gt[i]), 3e-2)
        << "t[" << i << "] analytic " << gt[i];
  }
}

TEST(BlendGradX, MatchesNumericGradient) {
  Rng rng(2);
  auto model = nn::MakeDualChannelClassifier(TinySpec());
  Tensor x({2, 6});
  for (float& v : x.flat()) v = rng.Uniform(0.2f, 0.8f);
  Tensor t({6});
  for (float& v : t.flat()) v = rng.Uniform(0.3f, 0.7f);
  const std::vector<int> labels = {1, 3};
  core::BlendConfig cfg;
  cfg.alpha = 0.3f;

  auto eval = [&] {
    const core::Blended b = core::Blend(x, t, cfg);
    const Tensor logits = model->Forward(b.c1, b.c2, false);
    return ops::SoftmaxCrossEntropy(logits, labels, nullptr);
  };
  const core::Blended b = core::Blend(x, t, cfg);
  const Tensor logits = model->Forward(b.c1, b.c2, true);
  Tensor dlogits;
  ops::SoftmaxCrossEntropy(logits, labels, &dlogits);
  auto [g1, g2] = model->Backward(dlogits);
  model->ZeroGrad();
  const Tensor gx = core::BlendGradX(b, g1, g2, cfg.alpha);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LT(testing::NumericGradError(eval, x, i, gx[i]), 3e-2)
        << "x[" << i << "] analytic " << gx[i];
  }
}

TEST(Perturbation, RandomInitStaysInRange) {
  Rng rng(3);
  const core::Perturbation p = core::Perturbation::Random({3, 4, 4}, rng);
  for (float v : p.tensor().flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Perturbation, SeedZeroNoiseReproducesSeed) {
  Rng rng(4);
  Tensor seed({8});
  for (float& v : seed.flat()) v = rng.Uniform();
  const core::Perturbation p = core::Perturbation::FromSeed(seed, 0.0f, rng);
  for (std::size_t i = 0; i < seed.size(); ++i) {
    EXPECT_FLOAT_EQ(p.tensor()[i], seed[i]);
  }
}

TEST(OptimizePerturbation, ReducesBlendedLoss) {
  Rng rng(5);
  data::SyntheticPurchase gen(data::Purchase50Like());
  data::Dataset train = gen.Sample(120, rng);
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {200};
  spec.num_classes = 50;
  spec.width = 6;
  spec.seed = 41;
  auto model = nn::MakeDualChannelClassifier(spec);
  core::BlendConfig blend;
  blend.alpha = 0.5f;
  Tensor t = core::Perturbation::Random({200}, rng).tensor();

  auto mean_loss = [&] {
    const std::vector<float> l = core::DualLosses(*model, train, t, blend);
    double s = 0.0;
    for (float v : l) s += v;
    return s / static_cast<double>(l.size());
  };
  const double before = mean_loss();
  core::OptimizePerturbation(*model, train, t, blend, 1e-5f, 0.05f,
                             /*steps=*/40, /*batch_size=*/64, rng);
  EXPECT_LT(mean_loss(), before);
}

TEST(OptimizePerturbation, L1TermShrinksT) {
  Rng rng(6);
  data::SyntheticPurchase gen(data::Purchase50Like());
  data::Dataset train = gen.Sample(60, rng);
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {200};
  spec.num_classes = 50;
  spec.width = 4;
  spec.seed = 42;
  auto model = nn::MakeDualChannelClassifier(spec);
  core::BlendConfig blend;
  Tensor t_small = core::Perturbation::Random({200}, rng).tensor();
  Tensor t_big = t_small;
  Rng r1(7), r2(7);
  core::OptimizePerturbation(*model, train, t_small, blend, /*λt=*/1e-2f,
                             0.05f, 30, 32, r1);
  core::OptimizePerturbation(*model, train, t_big, blend, /*λt=*/0.0f, 0.05f,
                             30, 32, r2);
  EXPECT_LT(ops::L1Norm(t_small), ops::L1Norm(t_big));
}

/// Step I as it ran before the input-gradient-only backward: a full
/// Backward that accumulates every parameter gradient, then ZeroGrad.
void ReferenceOptimizePerturbation(nn::DualChannelClassifier& model,
                                   const data::Dataset& data, Tensor& t,
                                   const core::BlendConfig& blend,
                                   float lambda_t, float lr_t,
                                   std::size_t steps, std::size_t batch_size,
                                   Rng& rng) {
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t bsz = std::min(batch_size, data.size());
    std::vector<std::size_t> idx(bsz);
    for (std::size_t i = 0; i < bsz; ++i) idx[i] = rng.Index(data.size());
    const data::Dataset batch = data.Subset(idx);
    const core::Blended blended = core::Blend(batch.inputs, t, blend);
    const Tensor logits = model.Forward(blended.c1, blended.c2, true);
    Tensor dlogits;
    ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
    auto [g1, g2] = model.Backward(dlogits, nn::ParamGrads::kAccumulate);
    model.ZeroGrad();
    Tensor gt = core::BlendGradT(blended, g1, g2, blend.alpha);
    ops::Axpy(gt, lambda_t, ops::Sign(t));
    ops::Axpy(t, -lr_t, gt);
    ops::ClipInPlace(t, blend.clip_lo, blend.clip_hi);
  }
}

void ExpectStepIMatchesReference(const nn::ModelSpec& spec,
                                 const data::Dataset& train) {
  SCOPED_TRACE(nn::ArchName(spec.arch));
  core::BlendConfig blend;
  blend.alpha = 0.5f;
  Rng init(61);
  const Tensor t0 = core::Perturbation::Random(train.SampleShape(), init)
                        .tensor();

  auto ref_model = nn::MakeDualChannelClassifier(spec);
  Tensor t_ref = t0;
  Rng r_ref(62);
  ReferenceOptimizePerturbation(*ref_model, train, t_ref, blend, 1e-4f, 0.05f,
                                /*steps=*/6, /*batch_size=*/16, r_ref);

  auto model = nn::MakeDualChannelClassifier(spec);
  // Non-zero accumulators: Step I must neither read nor write them.
  Rng fill(63);
  std::vector<Tensor> grads_before, values_before;
  for (nn::Parameter* p : model->Parameters()) {
    for (float& g : p->grad.flat()) g = fill.Normal();
    grads_before.push_back(p->grad);
    values_before.push_back(p->value);
  }
  Tensor t = t0;
  Rng r(62);
  core::OptimizePerturbation(*model, train, t, blend, 1e-4f, 0.05f,
                             /*steps=*/6, /*batch_size=*/16, r);

  ASSERT_TRUE(t.SameShape(t_ref));
  EXPECT_EQ(std::memcmp(t.data(), t_ref.data(), t.size() * sizeof(float)), 0);
  EXPECT_EQ(r.Index(1u << 30), r_ref.Index(1u << 30));  // same draws consumed
  const std::vector<nn::Parameter*> params = model->Parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& g = params[i]->grad;
    const Tensor& v = params[i]->value;
    EXPECT_EQ(std::memcmp(g.data(), grads_before[i].data(),
                          g.size() * sizeof(float)),
              0)
        << params[i]->name << " grad";
    EXPECT_EQ(std::memcmp(v.data(), values_before[i].data(),
                          v.size() * sizeof(float)),
              0)
        << params[i]->name << " value";
  }
}

TEST(OptimizePerturbation, MatchesFullBackwardReferenceBytewise) {
  Rng rng(60);
  data::SyntheticVision vision(data::ChMnistLike());
  nn::ModelSpec resnet;
  resnet.arch = nn::Arch::kResNet;
  resnet.input_shape = vision.SampleShape();
  resnet.num_classes = 8;
  resnet.width = 4;
  resnet.seed = 43;
  ExpectStepIMatchesReference(resnet, vision.Sample(40, rng));

  data::SyntheticPurchase purchase(data::Purchase50Like());
  nn::ModelSpec mlp;
  mlp.arch = nn::Arch::kMLP;
  mlp.input_shape = {200};
  mlp.num_classes = 50;
  mlp.width = 6;
  mlp.seed = 44;
  ExpectStepIMatchesReference(mlp, purchase.Sample(40, rng));
}

TEST(CipClient, RoundImprovesBlendedAccuracy) {
  Rng rng(8);
  data::SyntheticVision gen(data::ChMnistLike());
  data::Dataset train = gen.Sample(160, rng);
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kResNet;
  spec.input_shape = gen.SampleShape();
  spec.num_classes = 8;
  spec.width = 6;
  spec.seed = 51;
  core::CipConfig cfg;
  cfg.blend.alpha = 0.5f;
  cfg.train.lr = 0.02f;
  cfg.train.momentum = 0.9f;
  cfg.train.epochs = 4;
  cfg.perturb_steps = 4;
  core::CipClient client(spec, train, cfg, 52);

  client.SetGlobal(core::InitialDualState(spec));
  const double before = client.EvalAccuracy(train);
  for (int r = 0; r < 8; ++r) {
    client.TrainLocal(fl::MakeRoundContext(9, static_cast<std::size_t>(r) + 1, 0));
  }
  EXPECT_GT(client.EvalAccuracy(train), before + 0.2);
}

TEST(CipClient, PerturbationStaysSecretAndInRange) {
  Rng rng(10);
  data::SyntheticPurchase gen(data::Purchase50Like());
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {200};
  spec.num_classes = 50;
  spec.width = 4;
  spec.seed = 53;
  core::CipConfig cfg;
  core::CipClient a(spec, gen.Sample(50, rng), cfg, 1);
  core::CipClient b(spec, gen.Sample(50, rng), cfg, 2);
  // Personalized: different clients draw different perturbations.
  float diff = 0.0f;
  for (std::size_t i = 0; i < a.perturbation().size(); ++i) {
    diff += std::abs(a.perturbation()[i] - b.perturbation()[i]);
  }
  EXPECT_GT(diff, 1.0f);
  for (float v : a.perturbation().flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(CipClient, StateSizeMatchesDualModel) {
  Rng rng(11);
  data::SyntheticPurchase gen(data::Purchase50Like());
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.input_shape = {200};
  spec.num_classes = 50;
  spec.width = 4;
  spec.seed = 54;
  core::CipConfig cfg;
  cfg.perturb_steps = 1;
  core::CipClient client(spec, gen.Sample(40, rng), cfg, 3);
  client.SetGlobal(core::InitialDualState(spec));
  const fl::ModelState state = client.TrainLocal(fl::MakeRoundContext(12, 1, 0));
  auto model = nn::MakeDualChannelClassifier(spec);
  EXPECT_EQ(state.size(), model->ParameterCount());
}

// ---- theory -----------------------------------------------------------------

TEST(Theory, AdvantageMonotoneInPosterior) {
  EXPECT_LT(core::AdversarialAdvantage(0.3), core::AdversarialAdvantage(0.7));
  EXPECT_NEAR(core::AdversarialAdvantage(0.5), 1.0, 1e-9);
}

TEST(Theory, Theorem1EpsilonAtMostOneWhenGuessIsWorse) {
  // l(θ, z_t) ≤ l(θ, z_t') ⇒ ε ≤ 1: guessing a perturbation cannot help.
  EXPECT_LE(core::Theorem1Epsilon(0.5, 2.0, 1.0), 1.0);
  EXPECT_NEAR(core::Theorem1Epsilon(1.0, 1.0, 1.0), 1.0, 1e-12);
  EXPECT_GT(core::Theorem1Epsilon(0.5, 2.0, 10.0),
            core::Theorem1Epsilon(0.5, 2.0, 1.0));  // higher T, weaker bound
}

TEST(Theory, BoundedAdvantageScalesTrueAdvantage) {
  const double adv = core::AdversarialAdvantage(0.8);
  const double bounded = core::BoundedAdvantage(adv, 0.5, 1.5, 1.0);
  EXPECT_LT(bounded, adv);
  EXPECT_GT(bounded, 0.0);
}

TEST(Theory, EmpiricalMemberProbSeparatesCleanLossGap)
{
  // Members cluster near 0 loss, non-members near 3: a low-loss sample must
  // get a high member probability.
  std::vector<float> member = {0.01f, 0.05f, 0.1f, 0.02f};
  std::vector<float> nonmember = {2.5f, 3.0f, 3.5f, 2.8f};
  EXPECT_GT(core::EmpiricalMemberProb(0.05, member, nonmember), 0.95);
  EXPECT_LT(core::EmpiricalMemberProb(3.0, member, nonmember), 0.05);
}

}  // namespace
}  // namespace cip
