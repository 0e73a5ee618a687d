#include "attacks/output_attacks.h"

#include <algorithm>
#include <cmath>

#include "attacks/shadow.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace cip::attacks {

// ---- Ob-Label ---------------------------------------------------------------

std::vector<float> ObLabel::Score(fl::QueryModel& target,
                                  const data::Dataset& candidates) {
  const std::vector<int> pred = target.Predict(candidates.inputs);
  std::vector<float> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = pred[i] == candidates.labels[i] ? 1.0f : 0.0f;
  }
  return scores;
}

// ---- Ob-MALT ----------------------------------------------------------------

ObMalt::ObMalt(std::span<const float> shadow_member_losses,
               std::span<const float> shadow_nonmember_losses) {
  // Scores are negated losses (higher = more member-like).
  std::vector<float> ms(shadow_member_losses.size());
  std::vector<float> ns(shadow_nonmember_losses.size());
  for (std::size_t i = 0; i < ms.size(); ++i) ms[i] = -shadow_member_losses[i];
  for (std::size_t i = 0; i < ns.size(); ++i) {
    ns[i] = -shadow_nonmember_losses[i];
  }
  threshold_ = BestThreshold(ms, ns);
}

std::vector<float> ObMalt::Score(fl::QueryModel& target,
                                 const data::Dataset& candidates) {
  const std::vector<float> losses = target.Losses(candidates);
  std::vector<float> scores(losses.size());
  for (std::size_t i = 0; i < losses.size(); ++i) scores[i] = -losses[i];
  return scores;
}

// ---- Ob-NN ------------------------------------------------------------------

namespace {

std::unique_ptr<nn::Sequential> BuildAttackNet(std::size_t in_dim, Rng& rng) {
  auto net = std::make_unique<nn::Sequential>("obnn");
  net->Add(std::make_unique<nn::Linear>(in_dim, 24, rng, "obnn.l1"))
      .Add(std::make_unique<nn::ReLU>())
      .Add(std::make_unique<nn::Linear>(24, 2, rng, "obnn.l2"));
  return net;
}

}  // namespace

Tensor ObNN::Features(fl::QueryModel& model, const data::Dataset& ds) const {
  const Tensor probs = model.Probs(ds.inputs);
  const std::vector<float> losses = model.Losses(ds);
  const std::size_t n = probs.dim(0), c = probs.dim(1);
  const std::size_t k = std::min(kTopK, c);
  Tensor f({n, kTopK + 1});
  std::vector<float> row(c);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(probs.data() + i * c, probs.data() + (i + 1) * c, row.begin());
    std::partial_sort(row.begin(), row.begin() + static_cast<long>(k),
                      row.end(), std::greater<float>());
    for (std::size_t j = 0; j < k; ++j) f[i * (kTopK + 1) + j] = row[j];
    // Clamp the loss feature: member/non-member separation lives in the low
    // range and unbounded losses destabilize the tiny attack net.
    f[i * (kTopK + 1) + kTopK] = std::min(losses[i], 10.0f) / 10.0f;
  }
  return f;
}

ObNN::ObNN(fl::QueryModel& shadow, const data::Dataset& shadow_members,
           const data::Dataset& shadow_nonmembers, Rng& rng,
           std::size_t train_epochs)
    : net_(BuildAttackNet(kTopK + 1, rng)) {
  const Tensor fm = Features(shadow, shadow_members);
  const Tensor fn = Features(shadow, shadow_nonmembers);
  const std::size_t nm = fm.dim(0), nn_ = fn.dim(0);
  Tensor x({nm + nn_, fm.dim(1)});
  std::copy(fm.data(), fm.data() + fm.size(), x.data());
  std::copy(fn.data(), fn.data() + fn.size(), x.data() + fm.size());
  std::vector<int> y(nm + nn_, 0);
  std::fill(y.begin(), y.begin() + static_cast<long>(nm), 1);

  const std::vector<nn::Parameter*> params = net_->Parameters();
  optim::Sgd opt(0.1f, 0.9f);
  const std::size_t bsz = 64;
  for (std::size_t e = 0; e < train_epochs; ++e) {
    const std::vector<std::size_t> perm = rng.Permutation(nm + nn_);
    for (std::size_t start = 0; start < perm.size(); start += bsz) {
      const std::size_t end = std::min(start + bsz, perm.size());
      Tensor xb({end - start, x.dim(1)});
      std::vector<int> yb(end - start);
      for (std::size_t i = start; i < end; ++i) {
        const std::size_t src = perm[i];
        std::copy(x.data() + src * x.dim(1), x.data() + (src + 1) * x.dim(1),
                  xb.data() + (i - start) * x.dim(1));
        yb[i - start] = y[src];
      }
      const Tensor logits = net_->Forward(xb, /*train=*/true);
      Tensor dlogits;
      ops::SoftmaxCrossEntropy(logits, yb, &dlogits);
      net_->Backward(dlogits);
      opt.Step(params);
    }
  }
}

std::vector<float> ObNN::Score(fl::QueryModel& target,
                               const data::Dataset& candidates) {
  const Tensor f = Features(target, candidates);
  const Tensor probs = ops::SoftmaxRows(net_->EvalForward(f));
  std::vector<float> scores(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scores[i] = probs[i * 2 + 1];
  }
  return scores;
}

// ---- Ob-BlindMI -------------------------------------------------------------

namespace {

/// Sorted-probability embedding rows (class-agnostic, like BlindMI).
Tensor SortedProbs(fl::QueryModel& model, const Tensor& inputs) {
  Tensor probs = model.Probs(inputs);
  const std::size_t n = probs.dim(0), c = probs.dim(1);
  for (std::size_t i = 0; i < n; ++i) {
    std::sort(probs.data() + i * c, probs.data() + (i + 1) * c,
              std::greater<float>());
  }
  return probs;
}

double MeanEmbeddingDistance(const Tensor& mean_a, const Tensor& mean_b) {
  double d = 0.0;
  for (std::size_t j = 0; j < mean_a.size(); ++j) {
    const double diff = mean_a[j] - mean_b[j];
    d += diff * diff;
  }
  return std::sqrt(d);
}

}  // namespace

ObBlindMi::ObBlindMi(data::Dataset generated_nonmembers)
    : reference_(std::move(generated_nonmembers)) {
  CIP_CHECK(!reference_.empty());
}

std::vector<float> ObBlindMi::Score(fl::QueryModel& target,
                                    const data::Dataset& candidates) {
  const Tensor cand = SortedProbs(target, candidates.inputs);
  const Tensor ref = SortedProbs(target, reference_.inputs);
  const std::size_t n = cand.dim(0), c = cand.dim(1), m = ref.dim(0);

  Tensor mean_s({c});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < c; ++j) mean_s[j] += cand[i * c + j];
  }
  ops::ScaleInPlace(mean_s, 1.0f / static_cast<float>(n));
  Tensor mean_r({c});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < c; ++j) mean_r[j] += ref[i * c + j];
  }
  ops::ScaleInPlace(mean_r, 1.0f / static_cast<float>(m));

  const double base = MeanEmbeddingDistance(mean_s, mean_r);
  std::vector<float> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Move candidate i from the suspect-member set to the reference set.
    Tensor ms({c}), mr({c});
    for (std::size_t j = 0; j < c; ++j) {
      const float xi = cand[i * c + j];
      ms[j] = n > 1 ? (mean_s[j] * static_cast<float>(n) - xi) /
                          static_cast<float>(n - 1)
                    : mean_s[j];
      mr[j] = (mean_r[j] * static_cast<float>(m) + xi) /
              static_cast<float>(m + 1);
    }
    const double moved = MeanEmbeddingDistance(ms, mr);
    // BlindMI-DIFF's rule: if moving i into the non-member side *increases*
    // the distance, i was a non-member (the suspect set got purer); if the
    // distance shrinks, i's confident member-like output was propping the
    // distance up — i is a member. Score = decrease caused by the move.
    scores[i] = static_cast<float>(base - moved);
  }
  return scores;
}

}  // namespace cip::attacks
