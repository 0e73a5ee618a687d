#include "defenses/dp_sgd.h"

#include <cmath>

#include "tensor/ops.h"

namespace cip::defenses {

float NoiseMultiplier(const DpConfig& cfg) {
  CIP_CHECK_GT(cfg.epsilon, 0.0f);
  CIP_CHECK(cfg.delta > 0.0f && cfg.delta < 1.0f);
  CIP_CHECK_GT(cfg.total_steps, 0u);
  CIP_CHECK(cfg.sampling_rate > 0.0f && cfg.sampling_rate <= 1.0f);
  return cfg.sampling_rate *
         std::sqrt(2.0f * static_cast<float>(cfg.total_steps) *
                   std::log(1.25f / cfg.delta)) /
         cfg.epsilon;
}

DpSgdClient::DpSgdClient(const nn::ModelSpec& spec, data::Dataset local_data,
                         fl::TrainConfig train_cfg, DpConfig dp_cfg,
                         std::uint64_t /*seed*/)
    : model_(nn::MakeClassifierDeferred(spec)),
      data_(std::move(local_data)),
      cfg_(train_cfg),
      dp_(dp_cfg),
      sigma_(NoiseMultiplier(dp_cfg)) {
  CIP_CHECK(!data_.empty());
  CIP_CHECK_GT(dp_.clip_norm, 0.0f);
}

void DpSgdClient::SetGlobal(const fl::ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

fl::ModelState DpSgdClient::TrainLocal(fl::RoundContext ctx) {
  const float lr = ctx.LrFor(cfg_);
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) loss = PrivateEpoch(ctx.rng, lr);
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return fl::ModelState::From(params);
}

float DpSgdClient::PrivateEpoch(Rng& rng, float lr) {
  const std::vector<std::size_t> perm = rng.Permutation(data_.size());
  const std::vector<nn::Parameter*> params = model_->Parameters();
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data_.size();
       start += cfg_.batch_size) {
    const std::size_t end = std::min(start + cfg_.batch_size, data_.size());
    const std::size_t bsz = end - start;

    // Per-sample clipped gradient accumulation.
    std::vector<Tensor> acc;
    acc.reserve(params.size());
    for (const nn::Parameter* p : params) acc.emplace_back(p->value.shape());
    double batch_loss = 0.0;
    for (std::size_t s = start; s < end; ++s) {
      const std::size_t i = perm[s];
      const data::Dataset one = data_.Subset(std::span(&i, 1));
      const Tensor logits = model_->Forward(one.inputs, /*train=*/true);
      Tensor dlogits;
      batch_loss += ops::SoftmaxCrossEntropy(logits, one.labels, &dlogits);
      model_->Backward(dlogits);
      // Global-norm clip over the whole gradient vector.
      double sq = 0.0;
      for (const nn::Parameter* p : params) {
        for (float g : p->grad.flat()) sq += static_cast<double>(g) * g;
      }
      const float norm = static_cast<float>(std::sqrt(sq));
      const float scale =
          norm > dp_.clip_norm ? dp_.clip_norm / norm : 1.0f;
      for (std::size_t pi = 0; pi < params.size(); ++pi) {
        ops::Axpy(acc[pi], scale, params[pi]->grad);
        params[pi]->ZeroGrad();
      }
    }

    // Add noise, average, and take an SGD step.
    const float noise_std = sigma_ * dp_.clip_norm;
    const float inv_b = 1.0f / static_cast<float>(bsz);
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      nn::Parameter& p = *params[pi];
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

double DpSgdClient::EvalAccuracy(const data::Dataset& data) {
  return fl::Evaluate(*model_, data);
}

}  // namespace cip::defenses
