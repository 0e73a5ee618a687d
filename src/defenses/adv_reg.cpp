#include "defenses/adv_reg.h"

#include "nn/activations.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace cip::defenses {

namespace {

std::unique_ptr<nn::Sequential> BuildAttacker(std::size_t num_classes,
                                              std::size_t hidden, Rng& rng) {
  auto seq = std::make_unique<nn::Sequential>("ar.attacker");
  seq->Add(std::make_unique<nn::Linear>(2 * num_classes, hidden, rng, "ar.l1"))
      .Add(std::make_unique<nn::ReLU>())
      .Add(std::make_unique<nn::Linear>(hidden, 2, rng, "ar.l2"));
  return seq;
}

}  // namespace

ArClient::ArClient(const nn::ModelSpec& spec, data::Dataset local_data,
                   data::Dataset reference, fl::TrainConfig train_cfg,
                   ArConfig ar_cfg, std::uint64_t seed)
    : model_(nn::MakeClassifierDeferred(spec)),
      data_(std::move(local_data)),
      reference_(std::move(reference)),
      cfg_(train_cfg),
      ar_(ar_cfg),
      init_rng_(seed),
      attacker_(
          BuildAttacker(spec.num_classes, ar_cfg.attack_hidden, init_rng_)),
      attacker_opt_(ar_cfg.attack_lr, 0.5f),
      model_opt_(train_cfg.lr, train_cfg.momentum, train_cfg.weight_decay,
                 train_cfg.grad_clip) {
  CIP_CHECK(!data_.empty());
  CIP_CHECK(!reference_.empty());
}

void ArClient::SetGlobal(const fl::ModelState& global) {
  global.ApplyTo(model_->ParametersForOverwrite());
}

Tensor ArClient::AttackInput(const Tensor& probs,
                             std::span<const int> labels) const {
  const std::size_t n = probs.dim(0), c = probs.dim(1);
  CIP_CHECK_EQ(labels.size(), n);
  Tensor u({n, 2 * c});
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(probs.data() + i * c, probs.data() + (i + 1) * c,
              u.data() + i * 2 * c);
    u[i * 2 * c + c + static_cast<std::size_t>(labels[i])] = 1.0f;
  }
  return u;
}

void ArClient::TrainAttacker(Rng& rng) {
  const std::vector<nn::Parameter*> hp = attacker_->Parameters();
  const std::size_t bsz = std::min<std::size_t>(cfg_.batch_size,
                                                std::min(data_.size(),
                                                         reference_.size()));
  for (std::size_t step = 0; step < ar_.attack_steps; ++step) {
    // One member batch, one non-member batch.
    std::vector<std::size_t> mi(bsz), ni(bsz);
    for (std::size_t i = 0; i < bsz; ++i) {
      mi[i] = rng.Index(data_.size());
      ni[i] = rng.Index(reference_.size());
    }
    const data::Dataset mb = data_.Subset(mi);
    const data::Dataset nb = reference_.Subset(ni);
    const Tensor mp = ops::SoftmaxRows(fl::LogitsFor(*model_, mb.inputs));
    const Tensor np = ops::SoftmaxRows(fl::LogitsFor(*model_, nb.inputs));
    const Tensor mu = AttackInput(mp, mb.labels);
    const Tensor nu = AttackInput(np, nb.labels);

    std::vector<int> labels(2 * bsz);
    Tensor batch({2 * bsz, mu.dim(1)});
    std::copy(mu.data(), mu.data() + mu.size(), batch.data());
    std::copy(nu.data(), nu.data() + nu.size(), batch.data() + mu.size());
    for (std::size_t i = 0; i < bsz; ++i) {
      labels[i] = 1;          // member
      labels[bsz + i] = 0;    // non-member
    }
    const Tensor hlogits = attacker_->Forward(batch, /*train=*/true);
    Tensor dh;
    ops::SoftmaxCrossEntropy(hlogits, labels, &dh);
    attacker_->Backward(dh);
    attacker_opt_.Step(hp);
  }
}

float ArClient::TrainModelEpoch(Rng& rng) {
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

    const Tensor logits = model_->Forward(batch.inputs, /*train=*/true);
    Tensor dlogits;
    const float ce = ops::SoftmaxCrossEntropy(logits, batch.labels, &dlogits);

    // Regularizer: + λ·mean(log h_member(u)). Push the attacker's member
    // posterior down through softmax(logits) -> u -> h.
    const Tensor probs = ops::SoftmaxRows(logits);
    const Tensor u = AttackInput(probs, batch.labels);
    const Tensor hlogits = attacker_->Forward(u, /*train=*/true);
    const Tensor hp = ops::SoftmaxRows(hlogits);
    // d[mean log p_member]/dhlogits = (e_member − p_h)/n.
    Tensor dh(hlogits.shape());
    for (std::size_t i = 0; i < n; ++i) {
      dh[i * 2 + 0] = -hp[i * 2 + 0] / static_cast<float>(n);
      dh[i * 2 + 1] = (1.0f - hp[i * 2 + 1]) / static_cast<float>(n);
    }
    ops::ScaleInPlace(dh, ar_.lambda);  // weight of the gain term
    // h is fixed in this phase: input gradient only, its grads untouched.
    Tensor du = attacker_->Backward(dh, nn::ParamGrads::kSkip);
    // Only the probs half of u depends on the model.
    const std::size_t c = probs.dim(1);
    Tensor dprobs({n, c});
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(du.data() + i * 2 * c, du.data() + i * 2 * c + c,
                dprobs.data() + i * c);
    }
    ops::AddInPlace(dlogits, ops::SoftmaxBackwardRows(probs, dprobs));

    model_->Backward(dlogits);
    model_opt_.Step(params);
    total_loss += ce;
    ++batches;
  }
  return batches > 0 ? static_cast<float>(total_loss / batches) : 0.0f;
}

fl::ModelState ArClient::TrainLocal(fl::RoundContext ctx) {
  model_opt_.set_lr(ctx.LrFor(cfg_));
  float loss = 0.0f;
  for (std::size_t e = 0; e < cfg_.epochs; ++e) {
    TrainAttacker(ctx.rng);
    loss = TrainModelEpoch(ctx.rng);
  }
  last_loss_ = loss;
  const std::vector<nn::Parameter*> params = model_->Parameters();
  return fl::ModelState::From(params);
}

double ArClient::EvalAccuracy(const data::Dataset& data) {
  return fl::Evaluate(*model_, data);
}

fl::ClientState ArClient::ExportState() const {
  const std::vector<nn::Parameter*> hp = attacker_->Parameters();
  const std::vector<Tensor> attacker_opt = attacker_opt_.ExportState();
  const std::vector<Tensor> model_opt = model_opt_.ExportState();
  fl::ClientState state;
  Tensor header({3});
  header[0] = static_cast<float>(hp.size());
  header[1] = static_cast<float>(attacker_opt.size());
  header[2] = static_cast<float>(model_opt.size());
  state.tensors.push_back(std::move(header));
  for (const nn::Parameter* p : hp) state.tensors.push_back(p->value);
  for (const Tensor& t : attacker_opt) state.tensors.push_back(t);
  for (const Tensor& t : model_opt) state.tensors.push_back(t);
  return state;
}

void ArClient::RestoreState(const fl::ClientState& state) {
  CIP_CHECK_MSG(!state.tensors.empty() && state.tensors.front().size() == 3,
                "AR client snapshot must start with a {3} section header");
  const Tensor& header = state.tensors.front();
  const auto na = static_cast<std::size_t>(header[0]);
  const auto nao = static_cast<std::size_t>(header[1]);
  const auto nmo = static_cast<std::size_t>(header[2]);
  CIP_CHECK_EQ(state.tensors.size(), 1 + na + nao + nmo);
  const std::vector<nn::Parameter*> hp = attacker_->Parameters();
  CIP_CHECK_EQ(na, hp.size());
  std::size_t cursor = 1;
  for (nn::Parameter* p : hp) {
    const Tensor& v = state.tensors[cursor++];
    CIP_CHECK(v.SameShape(p->value));
    p->value = v;
  }
  attacker_opt_.RestoreState({state.tensors.begin() + cursor,
                              state.tensors.begin() + cursor + nao});
  cursor += nao;
  model_opt_.RestoreState({state.tensors.begin() + cursor,
                           state.tensors.begin() + cursor + nmo});
}

}  // namespace cip::defenses
