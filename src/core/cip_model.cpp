#include "core/cip_model.h"

#include <cmath>

#include "metrics/metrics.h"
#include "tensor/ops.h"

namespace cip::core {

// CIP_HOT  (blend+forward eval path used by accuracy/loss sweeps)
Tensor DualLogits(nn::DualChannelClassifier& model, const Tensor& inputs,
                  const Tensor& t, const BlendConfig& cfg,
                  std::size_t batch_size) {
  CIP_CHECK_GT(batch_size, 0u);
  const std::size_t n = inputs.dim(0);
  // CIP_ANALYZE_OK(hot-alloc-tensor): the returned logits buffer - the one allocation the eval sweep keeps
  Tensor out({n, model.num_classes()});
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t end = std::min(start + batch_size, n);
    const Blended b = Blend(inputs.Slice(start, end), t, cfg);
    // Valid until the next forward through `model`: copied out right away.
    const Tensor& logits = model.EvalForward(b.c1, b.c2);
    std::copy(logits.data(), logits.data() + logits.size(),
              out.data() + start * model.num_classes());
  }
  return out;
}

double DualAccuracy(nn::DualChannelClassifier& model, const data::Dataset& ds,
                    const Tensor& t, const BlendConfig& cfg,
                    std::size_t batch_size) {
  if (ds.empty()) return 0.0;
  const Tensor logits = DualLogits(model, ds.inputs, t, cfg, batch_size);
  return metrics::Accuracy(ops::ArgmaxRows(logits), ds.labels);
}

std::vector<float> CipWhiteBox::GradNorms(const data::Dataset& ds) {
  std::vector<float> out(ds.size());
  const std::vector<nn::Parameter*> params = model_->Parameters();
  model_->ZeroGrad();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const data::Dataset one = ds.Subset(std::span(&i, 1));
    const Blended b = Blend(one.inputs, t_, cfg_);
    const Tensor logits = model_->Forward(b.c1, b.c2, /*train=*/true);
    Tensor dlogits;
    ops::SoftmaxCrossEntropy(logits, one.labels, &dlogits);
    model_->Backward(dlogits);
    double sq = 0.0;
    for (const nn::Parameter* p : params) {
      for (float g : p->grad.flat()) sq += static_cast<double>(g) * g;
    }
    out[i] = static_cast<float>(std::sqrt(sq));
    model_->ZeroGrad();
  }
  return out;
}

std::vector<float> DualLosses(nn::DualChannelClassifier& model,
                              const data::Dataset& ds, const Tensor& t,
                              const BlendConfig& cfg, std::size_t batch_size) {
  const Tensor logits = DualLogits(model, ds.inputs, t, cfg, batch_size);
  return ops::PerSampleCrossEntropy(logits, ds.labels);
}

}  // namespace cip::core
