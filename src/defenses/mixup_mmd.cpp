#include "defenses/mixup_mmd.h"

#include <cmath>

#include "tensor/ops.h"

namespace cip::defenses {

MixupMmdClient::MixupMmdClient(const nn::ModelSpec& spec,
                               data::Dataset local_data,
                               data::Dataset validation,
                               fl::TrainConfig train_cfg, MmConfig mm_cfg,
                               std::uint64_t /*seed*/)
    : model_(nn::MakeClassifierDeferred(spec)),
      data_(std::move(local_data)),
      validation_(std::move(validation)),
      cfg_(train_cfg),
      mm_(mm_cfg),
      opt_(train_cfg.lr, train_cfg.momentum, train_cfg.weight_decay,
           train_cfg.grad_clip) {
  CIP_CHECK(!data_.empty());
  CIP_CHECK(!validation_.empty());
}

void MixupMmdClient::SetGlobal(const fl::ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

float MixupMmdClient::TrainEpochMixupMmd(Rng& rng) {
  const std::vector<std::size_t> perm = rng.Permutation(data_.size());
  const std::vector<nn::Parameter*> params = model_->Parameters();
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data_.size();
       start += cfg_.batch_size) {
    const std::size_t end = std::min(start + cfg_.batch_size, data_.size());
    const std::span<const std::size_t> idx(perm.data() + start, end - start);
    const data::Dataset batch = data_.Subset(idx);
    const std::size_t n = batch.size();

    // Mixup: pair each sample with a random partner from the same batch.
    // Beta(α,α) with α=1 is uniform; approximate other α by clamping the
    // symmetric Beta with a power transform of a uniform draw.
    const float lam = mm_.mixup_alpha == 1.0f
                          ? rng.Uniform()
                          : std::pow(rng.Uniform(), 1.0f / mm_.mixup_alpha) /
                                (std::pow(rng.Uniform(), 1.0f / mm_.mixup_alpha) +
                                 std::pow(rng.Uniform(), 1.0f / mm_.mixup_alpha));
    std::vector<std::size_t> partner(n);
    for (std::size_t i = 0; i < n; ++i) partner[i] = rng.Index(n);
    Tensor mixed(batch.inputs.shape());
    const std::size_t stride = mixed.size() / n;
    for (std::size_t i = 0; i < n; ++i) {
      const float* a = batch.inputs.data() + i * stride;
      const float* b = batch.inputs.data() + partner[i] * stride;
      float* o = mixed.data() + i * stride;
      for (std::size_t j = 0; j < stride; ++j) {
        o[j] = lam * a[j] + (1.0f - lam) * b[j];
      }
    }
    std::vector<int> labels_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      labels_b[i] = batch.labels[partner[i]];
    }

    const Tensor logits = model_->Forward(mixed, /*train=*/true);
    Tensor da, db;
    const float la = ops::SoftmaxCrossEntropy(logits, batch.labels, &da);
    const float lb = ops::SoftmaxCrossEntropy(logits, labels_b, &db);
    Tensor dlogits = ops::Scale(da, lam);
    ops::Axpy(dlogits, 1.0f - lam, db);
    const float ce = lam * la + (1.0f - lam) * lb;

    // Linear-kernel MMD: μ·‖mean p_train − mean p_val‖². The validation pass
    // is a constant w.r.t. θ in this step.
    if (mm_.mu > 0.0f) {
      const Tensor probs = ops::SoftmaxRows(logits);
      const std::size_t c = probs.dim(1);
      const std::size_t vb = std::min<std::size_t>(n, validation_.size());
      std::vector<std::size_t> vi(vb);
      for (std::size_t i = 0; i < vb; ++i) vi[i] = rng.Index(validation_.size());
      const data::Dataset vbatch = validation_.Subset(vi);
      const Tensor vprobs =
          ops::SoftmaxRows(fl::LogitsFor(*model_, vbatch.inputs));
      Tensor diff({c});
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          diff[j] += probs[i * c + j] / static_cast<float>(n);
        }
      }
      for (std::size_t i = 0; i < vb; ++i) {
        for (std::size_t j = 0; j < c; ++j) {
          diff[j] -= vprobs[i * c + j] / static_cast<float>(vb);
        }
      }
      // d(μ‖diff‖²)/dp_i = 2μ·diff/n for every training sample i.
      Tensor dprobs({n, c});
      const float scale = 2.0f * mm_.mu / static_cast<float>(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < c; ++j) dprobs[i * c + j] = scale * diff[j];
      }
      ops::AddInPlace(dlogits, ops::SoftmaxBackwardRows(probs, dprobs));
    }

    model_->Backward(dlogits);
    opt_.Step(params);
    total_loss += ce;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

fl::ModelState MixupMmdClient::TrainLocal(fl::RoundContext ctx) {
  opt_.set_lr(ctx.LrFor(cfg_));
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    loss = TrainEpochMixupMmd(ctx.rng);
  }
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return fl::ModelState::From(params);
}

double MixupMmdClient::EvalAccuracy(const data::Dataset& data) {
  return fl::Evaluate(*model_, data);
}

fl::ClientState MixupMmdClient::ExportState() const {
  return fl::ClientState{opt_.ExportState()};
}

void MixupMmdClient::RestoreState(const fl::ClientState& state) {
  opt_.RestoreState(state.tensors);
}

}  // namespace cip::defenses
