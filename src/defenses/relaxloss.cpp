#include "defenses/relaxloss.h"

#include "tensor/ops.h"

namespace cip::defenses {

RelaxLossClient::RelaxLossClient(const nn::ModelSpec& spec,
                                 data::Dataset local_data,
                                 fl::TrainConfig train_cfg, RlConfig rl_cfg,
                                 std::uint64_t /*seed*/)
    : model_(nn::MakeClassifierDeferred(spec)),
      data_(std::move(local_data)),
      cfg_(train_cfg),
      rl_(rl_cfg),
      opt_(train_cfg.lr, train_cfg.momentum, train_cfg.weight_decay,
           train_cfg.grad_clip) {
  CIP_CHECK(!data_.empty());
  CIP_CHECK_GE(rl_.omega, 0.0f);
}

void RelaxLossClient::SetGlobal(const fl::ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

float RelaxLossClient::RelaxEpoch(Rng& rng) {
  const std::vector<std::size_t> perm = rng.Permutation(data_.size());
  const std::vector<nn::Parameter*> params = model_->Parameters();
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data_.size();
       start += cfg_.batch_size) {
    const std::size_t end = std::min(start + cfg_.batch_size, data_.size());
    const std::span<const std::size_t> idx(perm.data() + start, end - start);
    const data::Dataset batch = data_.Subset(idx);
    const Tensor logits = model_->Forward(batch.inputs, /*train=*/true);
    Tensor dlogits;
    const float loss =
        ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
    // Descend while above the target, ascend when below — the loss is
    // "relaxed" toward ω rather than minimized to zero.
    if (loss < rl_.omega) ops::ScaleInPlace(dlogits, -1.0f);
    model_->Backward(dlogits);
    opt_.Step(params);
    total_loss += loss;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

fl::ModelState RelaxLossClient::TrainLocal(fl::RoundContext ctx) {
  opt_.set_lr(ctx.LrFor(cfg_));
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) loss = RelaxEpoch(ctx.rng);
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return fl::ModelState::From(params);
}

double RelaxLossClient::EvalAccuracy(const data::Dataset& data) {
  return fl::Evaluate(*model_, data);
}

fl::ClientState RelaxLossClient::ExportState() const {
  return fl::ClientState{opt_.ExportState()};
}

void RelaxLossClient::RestoreState(const fl::ClientState& state) {
  opt_.RestoreState(state.tensors);
}

}  // namespace cip::defenses
