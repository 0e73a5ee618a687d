#include "defenses/hdp.h"

#include <cmath>

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

#include "tensor/ops.h"

namespace cip::defenses {

namespace {

/// Frozen generic feature model: flatten → random Linear(d→F) → ReLU → head,
/// its init drawn from spec.seed at first use (nn::Classifier).
std::unique_ptr<nn::Classifier> MakeRandomFeatureModelDeferred(
    const nn::ModelSpec& spec, std::size_t feature_boost) {
  const std::size_t d = NumElements(spec.input_shape);
  const std::size_t features = std::max<std::size_t>(feature_boost * spec.width, 16);
  auto backbone = std::make_unique<nn::Sequential>("hdp.features");
  backbone->Add(std::make_unique<nn::Flatten>())
      .Add(std::make_unique<nn::Linear>(d, features, "hdp.proj"))
      .Add(std::make_unique<nn::ReLU>());
  return std::make_unique<nn::Classifier>(std::move(backbone), features,
                                          spec.num_classes, spec.seed);
}

}  // namespace

HdpClient::HdpClient(const nn::ModelSpec& spec, data::Dataset local_data,
                     fl::TrainConfig train_cfg, DpConfig dp_cfg,
                     std::uint64_t /*seed*/, std::size_t feature_boost)
    : model_(MakeRandomFeatureModelDeferred(spec, feature_boost)),
      data_(std::move(local_data)),
      cfg_(train_cfg),
      dp_(dp_cfg),
      sigma_(NoiseMultiplier(dp_cfg)) {
  CIP_CHECK(!data_.empty());
}

std::vector<nn::Parameter*> HdpClient::HeadParams() {
  // The classifier appends head weight+bias last in its parameter order.
  std::vector<nn::Parameter*> all = model_->Parameters();
  CIP_CHECK_GE(all.size(), 2u);
  return {all.end() - 2, all.end()};
}

void HdpClient::SetGlobal(const fl::ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

fl::ModelState HdpClient::TrainLocal(fl::RoundContext ctx) {
  const float lr = ctx.LrFor(cfg_);
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    loss = PrivateHeadEpoch(ctx.rng, lr);
  }
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return fl::ModelState::From(params);
}

float HdpClient::PrivateHeadEpoch(Rng& rng, float lr) {
  const std::vector<std::size_t> perm = rng.Permutation(data_.size());
  const std::vector<nn::Parameter*> head = HeadParams();
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data_.size();
       start += cfg_.batch_size) {
    const std::size_t end = std::min(start + cfg_.batch_size, data_.size());
    const std::size_t bsz = end - start;
    std::vector<Tensor> acc;
    for (const nn::Parameter* p : head) acc.emplace_back(p->value.shape());
    double batch_loss = 0.0;
    for (std::size_t s = start; s < end; ++s) {
      const std::size_t i = perm[s];
      const data::Dataset one = data_.Subset(std::span(&i, 1));
      const Tensor logits = model_->Forward(one.inputs, /*train=*/true);
      Tensor dlogits;
      batch_loss += ops::SoftmaxCrossEntropy(logits, one.labels, &dlogits);
      model_->Backward(dlogits);
      // Clip only the head gradient (the backbone is frozen and its grads
      // are discarded — it never trains, so it consumes no privacy budget).
      double sq = 0.0;
      for (const nn::Parameter* p : head) {
        for (float g : p->grad.flat()) sq += static_cast<double>(g) * g;
      }
      const float norm = static_cast<float>(std::sqrt(sq));
      const float scale = norm > dp_.clip_norm ? dp_.clip_norm / norm : 1.0f;
      for (std::size_t pi = 0; pi < head.size(); ++pi) {
        ops::Axpy(acc[pi], scale, head[pi]->grad);
      }
      model_->ZeroGrad();
    }
    const float noise_std = sigma_ * dp_.clip_norm;
    const float inv_b = 1.0f / static_cast<float>(bsz);
    for (std::size_t pi = 0; pi < head.size(); ++pi) {
      nn::Parameter& p = *head[pi];
      for (std::size_t j = 0; j < p.value.size(); ++j) {
        const float noisy = (acc[pi][j] + noise_std * rng.Normal()) * inv_b;
        p.value[j] -= lr * noisy;
      }
    }
    total_loss += batch_loss / static_cast<double>(bsz);
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

double HdpClient::EvalAccuracy(const data::Dataset& data) {
  return fl::Evaluate(*model_, data);
}

fl::ModelState HdpClient::InitialState(const nn::ModelSpec& spec,
                                       std::size_t feature_boost) {
  const auto model = MakeModel(spec, feature_boost);
  const std::vector<nn::Parameter*> params = model->Parameters();
  return fl::ModelState::From(params);
}

std::unique_ptr<nn::Classifier> HdpClient::MakeModel(
    const nn::ModelSpec& spec, std::size_t feature_boost) {
  auto model = MakeRandomFeatureModelDeferred(spec, feature_boost);
  model->Parameters();  // draws the init now
  return model;
}

}  // namespace cip::defenses
