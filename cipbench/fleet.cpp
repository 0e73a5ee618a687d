#include "fleet.h"

#include "attacks/attack.h"
#include "attacks/output_attacks.h"
#include "common/rng.h"
#include "core/cip_model.h"
#include "harness.h"

namespace cipbench {

using namespace cip;

Fleet::Fleet(const TrainingDef& def, std::uint64_t seed, std::size_t threads)
    : def_(def), seed_(seed) {
  fleet_ = def.fleet == 0 ? threads : def.fleet;
  cohort_ = def.cohort == 0 ? threads : def.cohort;
  proto_.kind = fl::ClientKind::kCip;
  proto_.model.arch = def.image ? nn::Arch::kResNet : nn::Arch::kMLP;
  if (def.image) {
    vision_ = std::make_unique<data::SyntheticVision>(data::ChMnistLike());
    proto_.model.input_shape = vision_->SampleShape();
    proto_.model.num_classes = vision_->config().num_classes;
  } else {
    purchase_ =
        std::make_unique<data::SyntheticPurchase>(data::Purchase50Like());
    proto_.model.input_shape = purchase_->SampleShape();
    proto_.model.num_classes = purchase_->config().num_classes;
  }
  proto_.model.width = def.width;
  proto_.model.seed = seed * 7919 + 17;
  proto_.train.batch_size = def.batch;
  proto_.train.lr = 0.05f;
  proto_.train.momentum = 0.9f;
  proto_.cip.perturb_steps = def.perturb_steps;
  proto_.cip.perturb_batch = def.batch;
}

data::Dataset Fleet::Sample(std::size_t n, std::uint64_t salt) const {
  Rng rng = DeriveStream(seed_, 0xDA7A, salt);
  return vision_ ? vision_->Sample(n, rng) : purchase_->Sample(n, rng);
}

fl::ClientSpec Fleet::SpecFor(std::size_t k) const {
  fl::ClientSpec spec = proto_;
  spec.data = Sample(def_.samples, k);
  spec.seed = seed_ * 1000003 + k;
  return spec;
}

Built BuildFleet(const TrainingDef& def, const Fleet& fleet,
                 const std::string& spill_dir, double delay_ms) {
  fl::ModelState init = fl::InitialStateFor(fleet.proto());
  if (!def.cold) {
    Built b{fl::ClientStore(), std::move(init)};
    for (std::size_t k = 0; k < fleet.size(); ++k) {
      b.store.Add(std::make_unique<TracedClient>(
          fl::MakeClient(fleet.SpecFor(k)), k, delay_ms));
    }
    return b;
  }
  fl::StoreOptions so;
  so.hot_bytes = def.hot_bytes;
  so.spill_dir = spill_dir;
  so.shard_clients = def.shard_clients;
  fl::ClientStore::Factory factory =
      [&fleet, delay_ms](std::size_t k) -> std::unique_ptr<fl::ClientBase> {
    ScopedSpan span("fl.factory", k);
    return std::make_unique<TracedClient>(fl::MakeClient(fleet.SpecFor(k)), k,
                                          delay_ms);
  };
  Built b{fl::ClientStore(fleet.size(), std::move(factory), so),
          std::move(init)};
  // Enrollment files each client's construction-time record (its secret t).
  // Records are the exact ExportState bytes, so this cannot change any
  // round's result; it only makes every participation a store reload.
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    fl::ClientStore::Handle h = b.store.Materialize(k);
    b.store.Evict(k, *h);
  }
  return b;
}

double MiaAccuracy(const fl::ClientSpec& proto, const fl::ModelState& global,
                   const data::Dataset& members,
                   const data::Dataset& nonmembers) {
  auto model = nn::MakeDualChannelClassifier(proto.model);
  const std::vector<nn::Parameter*> params = model->Parameters();
  global.ApplyTo(params);
  core::CipQuery query(*model, proto.cip.blend);
  const std::vector<float> ml = query.Losses(members);
  const std::vector<float> nl = query.Losses(nonmembers);
  attacks::ObMalt attack(ml, nl);
  return attacks::EvaluateAttack(attack, query, members, nonmembers).accuracy;
}

}  // namespace cipbench
