#include "fl/trainer.h"

#include "metrics/metrics.h"
#include "tensor/ops.h"

namespace cip::fl {

float LrAtRound(const TrainConfig& cfg, std::size_t round) {
  if (cfg.lr_decay_every == 0 || round == 0) return cfg.lr;
  const optim::StepDecaySchedule sched(cfg.lr, cfg.lr_decay,
                                       cfg.lr_decay_every);
  return sched.LrAt(round - 1);
}

float TrainEpoch(nn::Classifier& model, const data::Dataset& data,
                 optim::Optimizer& opt, const TrainConfig& cfg, Rng& rng) {
  CIP_CHECK_GT(cfg.batch_size, 0u);
  CIP_CHECK(!data.empty());
  const std::vector<std::size_t> perm = rng.Permutation(data.size());
  const std::vector<nn::Parameter*> params = model.Parameters();
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data.size(); start += cfg.batch_size) {
    const std::size_t end = std::min(start + cfg.batch_size, data.size());
    const std::span<const std::size_t> idx(perm.data() + start, end - start);
    data::Dataset batch = data.Subset(idx);
    Tensor inputs = cfg.augment ? data::Augment(batch.inputs, cfg.aug, rng)
                                : std::move(batch.inputs);
    const Tensor logits = model.Forward(inputs, /*train=*/true);
    Tensor dlogits;
    const float loss =
        ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
    model.Backward(dlogits);
    opt.Step(params);
    total_loss += loss;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

Tensor LogitsFor(nn::Classifier& model, const Tensor& inputs,
                 std::size_t batch_size) {
  CIP_CHECK_GT(batch_size, 0u);
  const std::size_t n = inputs.dim(0);
  Tensor out({n, model.num_classes()});
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(start + batch_size, n);
    const Tensor batch = inputs.Slice(start, end);
    // Valid until the next forward through `model`: copied out right away.
    const Tensor& logits = model.EvalForward(batch);
    std::copy(logits.data(), logits.data() + logits.size(),
              out.data() + start * model.num_classes());
  }
  return out;
}

double Evaluate(nn::Classifier& model, const data::Dataset& data,
                std::size_t batch_size) {
  if (data.empty()) return 0.0;
  const Tensor logits = LogitsFor(model, data.inputs, batch_size);
  return metrics::Accuracy(ops::ArgmaxRows(logits), data.labels);
}

std::vector<float> PerSampleLosses(nn::Classifier& model,
                                   const data::Dataset& data,
                                   std::size_t batch_size) {
  const Tensor logits = LogitsFor(model, data.inputs, batch_size);
  return ops::PerSampleCrossEntropy(logits, data.labels);
}

}  // namespace cip::fl
