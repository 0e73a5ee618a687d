#include "core/cip_client.h"

#include <chrono>
#include <cmath>

#include "tensor/ops.h"

namespace cip::core {

CipClient::CipClient(const nn::ModelSpec& spec, data::Dataset local_data,
                     CipConfig cfg, std::uint64_t seed)
    : model_(nn::MakeDualChannelClassifierDeferred(spec)),
      data_(std::move(local_data)),
      cfg_(std::move(cfg)),
      opt_(cfg_.train.lr, cfg_.train.momentum, cfg_.train.weight_decay,
           cfg_.train.grad_clip),
      init_rng_(seed) {
  CIP_CHECK(!data_.empty());
  const Shape sample_shape = data_.SampleShape();
  if (cfg_.init_seed.size() > 0) {
    CIP_CHECK(cfg_.init_seed.shape() == sample_shape);
    t_ = Perturbation::FromSeed(cfg_.init_seed, cfg_.init_noise_weight,
                                init_rng_, cfg_.blend.clip_lo,
                                cfg_.blend.clip_hi);
  } else {
    t_ = Perturbation::Random(sample_shape, init_rng_, cfg_.blend.clip_lo,
                              cfg_.blend.clip_hi);
  }
}

void CipClient::SetGlobal(const fl::ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

fl::ModelState CipClient::TrainLocal(fl::RoundContext ctx) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    // CIP_ANALYZE_OK(det-wallclock): step timing lands in RoundContext telemetry only, never in model state
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  opt_.set_lr(ctx.LrFor(cfg_.train));
  // CIP_ANALYZE_OK(det-wallclock): telemetry: Step I duration reported via ctx.telemetry
  const auto step1_t0 = Clock::now();
  StepIOptimizePerturbation(ctx.rng);
  const double step1_seconds = seconds_since(step1_t0);
  // CIP_ANALYZE_OK(det-wallclock): telemetry: Step II duration reported via ctx.telemetry
  const auto step2_t0 = Clock::now();
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.train.epochs; ++e) {
    loss = StepIITrainModel(ctx.rng);
  }
  if (ctx.telemetry != nullptr) {
    ctx.telemetry->step1_seconds = step1_seconds;
    ctx.telemetry->step2_seconds = seconds_since(step2_t0);
  }
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return fl::ModelState::From(params);
}

void CipClient::StepIOptimizePerturbation(Rng& rng) {
  OptimizePerturbation(*model_, data_, t_.tensor(), cfg_.blend, cfg_.lambda_t,
                       cfg_.lr_t, cfg_.perturb_steps, cfg_.perturb_batch,
                       rng);
}

float CipClient::StepIITrainModel(Rng& rng) {
  const std::vector<std::size_t> perm = rng.Permutation(data_.size());
  const std::vector<nn::Parameter*> params = model_->Parameters();
  const Tensor empty_t;  // raw-query path B(x, 0)
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < data_.size();
       start += cfg_.train.batch_size) {
    const std::size_t end =
        std::min(start + cfg_.train.batch_size, data_.size());
    const std::span<const std::size_t> idx(perm.data() + start, end - start);
    data::Dataset batch = data_.Subset(idx);
    Tensor inputs = cfg_.train.augment
                        ? data::Augment(batch.inputs, cfg_.train.aug, rng)
                        : std::move(batch.inputs);

    // Minimize CE on the blended data D_t.
    const Blended blended = Blend(inputs, t_.tensor(), cfg_.blend);
    const Tensor logits = model_->Forward(blended.c1, blended.c2, true);
    Tensor dlogits;
    const float loss =
        ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
    model_->Backward(dlogits);

    // Maximize CE on the raw-query path (weight λ_m): descend on −λ_m·CE,
    // but only while the raw loss is below the non-member ceiling — original
    // samples should look like non-members, not be abnormally wrong.
    if (cfg_.lambda_m > 0.0f) {
      const float ceiling =
          cfg_.raw_loss_ceiling > 0.0f
              ? cfg_.raw_loss_ceiling
              : std::log(static_cast<float>(model_->num_classes()));
      const Blended raw = Blend(inputs, empty_t, cfg_.blend);
      const Tensor raw_logits = model_->Forward(raw.c1, raw.c2, true);
      Tensor raw_dlogits;
      const float raw_loss =
          ops::SoftmaxCrossEntropy(raw_logits, batch.labels, &raw_dlogits);
      if (raw_loss < ceiling) {
        ops::ScaleInPlace(raw_dlogits, -cfg_.lambda_m);
        model_->Backward(raw_dlogits);
      } else {
        model_->ClearCache();  // drop the unused forward caches
      }
    }

    opt_.Step(params);
    total_loss += loss;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

fl::ClientState CipClient::ExportState() const {
  fl::ClientState state;
  state.tensors.push_back(t_.tensor());
  for (Tensor& v : opt_.ExportState()) state.tensors.push_back(std::move(v));
  return state;
}

void CipClient::RestoreState(const fl::ClientState& state) {
  CIP_CHECK_MSG(!state.tensors.empty(),
                "CIP client snapshot must carry the perturbation tensor");
  CIP_CHECK_MSG(state.tensors.front().shape() == data_.SampleShape(),
                "checkpointed perturbation shape does not match this "
                "client's sample shape");
  t_ = Perturbation(state.tensors.front());
  opt_.RestoreState({state.tensors.begin() + 1, state.tensors.end()});
}

double CipClient::EvalAccuracy(const data::Dataset& data) {
  return DualAccuracy(*model_, data, t_.tensor(), cfg_.blend);
}

float CipClient::BlendedDataLoss() {
  const std::vector<float> losses =
      DualLosses(*model_, data_, t_.tensor(), cfg_.blend);
  double s = 0.0;
  for (float l : losses) s += l;
  return losses.empty() ? 0.0f : static_cast<float>(s / losses.size());
}

float OptimizePerturbation(nn::DualChannelClassifier& model,
                           const data::Dataset& data, Tensor& t,
                           const BlendConfig& blend, float lambda_t,
                           float lr_t, std::size_t steps,
                           std::size_t batch_size, Rng& rng) {
  CIP_CHECK_GT(batch_size, 0u);
  CIP_CHECK(!data.empty());
  float last_loss = 0.0f;
  for (std::size_t s = 0; s < steps; ++s) {
    // Random minibatch.
    const std::size_t bsz = std::min(batch_size, data.size());
    std::vector<std::size_t> idx(bsz);
    for (std::size_t i = 0; i < bsz; ++i) idx[i] = rng.Index(data.size());
    const data::Dataset batch = data.Subset(idx);

    const Blended blended = Blend(batch.inputs, t, blend);
    const Tensor logits = model.Forward(blended.c1, blended.c2, true);
    Tensor dlogits;
    last_loss = ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);
    // θ is held fixed: the input-gradient-only backward skips every
    // weight-gradient GEMM and never touches Parameter::grad.
    auto [g1, g2] = model.Backward(dlogits, nn::ParamGrads::kSkip);

    // dlogits already carries the 1/batch mean reduction, and t is shared
    // across the batch, so summing per-sample contributions in BlendGradT
    // yields d(mean loss)/dt directly.
    Tensor gt = BlendGradT(blended, g1, g2, blend.alpha);
    ops::Axpy(gt, lambda_t, ops::Sign(t));
    ops::Axpy(t, -lr_t, gt);
    ops::ClipInPlace(t, blend.clip_lo, blend.clip_hi);
  }
  return last_loss;
}

fl::ModelState InitialDualState(const nn::ModelSpec& spec) {
  auto model = nn::MakeDualChannelClassifier(spec);
  const std::vector<nn::Parameter*> params = model->Parameters();
  return fl::ModelState::From(params);
}

}  // namespace cip::core
