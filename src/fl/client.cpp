#include "fl/client.h"

namespace cip::fl {

void ClientBase::RestoreState(const ClientState& state) {
  CIP_CHECK_MSG(state.tensors.empty(),
                "this client kind exports no private state; refusing a "
                "snapshot of " << state.tensors.size()
                               << " tensors (checkpoint/client mismatch)");
}

LegacyClient::LegacyClient(const nn::ModelSpec& spec, data::Dataset local_data,
                           TrainConfig train_cfg, std::uint64_t /*seed*/)
    : model_(nn::MakeClassifierDeferred(spec)),
      data_(std::move(local_data)),
      cfg_(train_cfg),
      opt_(train_cfg.lr, train_cfg.momentum, train_cfg.weight_decay,
           train_cfg.grad_clip) {
  CIP_CHECK(!data_.empty());
}

void LegacyClient::SetGlobal(const ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

ModelState LegacyClient::TrainLocal(RoundContext ctx) {
  opt_.set_lr(ctx.LrFor(cfg_));
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    loss = TrainEpoch(*model_, data_, opt_, cfg_, ctx.rng);
  }
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return ModelState::From(params);
}

double LegacyClient::EvalAccuracy(const data::Dataset& data) {
  return Evaluate(*model_, data);
}

ClientState LegacyClient::ExportState() const {
  // The model itself is re-broadcast by the server every round; the only
  // cross-round private state is the optimizer's momentum.
  return ClientState{opt_.ExportState()};
}

void LegacyClient::RestoreState(const ClientState& state) {
  opt_.RestoreState(state.tensors);
}

ModelState InitialState(const nn::ModelSpec& spec) {
  auto model = nn::MakeClassifier(spec);
  const std::vector<nn::Parameter*> params = model->Parameters();
  return ModelState::From(params);
}

}  // namespace cip::fl
