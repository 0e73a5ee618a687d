// Pins on every weight-init draw a client makes.
//
// The initial broadcast state (fl::InitialStateFor) of every client kind and
// architecture, CIP's secret perturbation t and AdvReg's attack model are
// pure functions of their seeds: their FNV-1a digests below are pinned. A
// client that trains or evaluates without ever receiving a global must see
// exactly the weights InitialStateFor broadcasts, so its TrainLocal and
// EvalAccuracy results equal those of a client that received that state.
// A cold client that receives the global before its first use draws no
// weights at all (nn::internal::InitDrawCount).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "fl/client_factory.h"
#include "nn/init.h"

namespace cip {
namespace {

std::uint64_t Fnv1a(std::span<const float> v,
                    std::uint64_t h = 1469598103934665603ull) {
  for (const float x : v) {
    unsigned char bytes[sizeof(float)];
    std::memcpy(bytes, &x, sizeof(float));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t Digest(const fl::ClientState& state) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Tensor& t : state.tensors) h = Fnv1a(t.flat(), h);
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

constexpr fl::ClientKind kKinds[] = {
    fl::ClientKind::kLegacy,   fl::ClientKind::kCip,
    fl::ClientKind::kDpSgd,    fl::ClientKind::kHdp,
    fl::ClientKind::kAdvReg,   fl::ClientKind::kMixupMmd,
    fl::ClientKind::kRelaxLoss};
constexpr nn::Arch kArchs[] = {nn::Arch::kResNet, nn::Arch::kDenseNet,
                               nn::Arch::kVGG, nn::Arch::kMLP};
constexpr std::uint64_t kSeeds[] = {1, 2};

data::Dataset RandomData(const Shape& sample, std::size_t n, Rng& rng) {
  Shape shape{n};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor inputs(shape);
  for (float& x : inputs.flat()) x = rng.Uniform();
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
  return {std::move(inputs), std::move(labels)};
}

fl::ClientSpec SpecFor(fl::ClientKind kind, nn::Arch arch,
                       std::uint64_t seed) {
  fl::ClientSpec spec;
  spec.kind = kind;
  spec.model.arch = arch;
  spec.model.input_shape = arch == nn::Arch::kMLP ? Shape{10} : Shape{2, 8, 8};
  spec.model.num_classes = 3;
  spec.model.width = 4;
  spec.model.seed = seed;
  spec.seed = 1000 + seed;
  Rng rng(7 + seed);
  spec.data = RandomData(spec.model.input_shape, 12, rng);
  spec.reference = RandomData(spec.model.input_shape, 12, rng);
  spec.train.batch_size = 4;
  spec.train.lr = 0.05f;
  spec.cip.perturb_steps = 2;
  spec.cip.perturb_batch = 4;
  spec.hdp_feature_boost = 4;
  return spec;
}

/// Which initial model a kind broadcasts: the plain classifier, CIP's
/// dual-channel model, or HDP's random-feature model.
std::size_t Family(fl::ClientKind kind) {
  if (kind == fl::ClientKind::kCip) return 1;
  if (kind == fl::ClientKind::kHdp) return 2;
  return 0;
}

TEST(InitDraws, InitialStateForIsPinnedPerKindArchAndSeed) {
  // [family][arch][seed], arch in kArchs order.
  constexpr std::uint64_t kPinned[3][4][2] = {
      {{0x17b30b2e4fdc3677ull, 0x337ff8766502ff92ull},
       {0x152adf2c7842f843ull, 0xa4f00684ec77ec0cull},
       {0x9e8c0c53c36205a2ull, 0x0937c3f71c7e062full},
       {0x41fa16055498a660ull, 0x60a4c39f907b2f0aull}},
      {{0x2d49364bb402d37full, 0xfa6fc44dfeec551bull},
       {0xc42c0822a5008afaull, 0xdff2b9247c4e2a60ull},
       {0x5e1f7a8849dbb1ecull, 0xcc85be5e97bbff8bull},
       {0xfe52b12941670b12ull, 0xc9409050ac9a9912ull}},
      {{0xd5061777eaa8896bull, 0xb9b7c0cd54f09fe5ull},
       {0xd5061777eaa8896bull, 0xb9b7c0cd54f09fe5ull},
       {0xd5061777eaa8896bull, 0xb9b7c0cd54f09fe5ull},
       {0x5c304f4068597c8aull, 0xa930f00a47037b34ull}},
  };
  for (const fl::ClientKind kind : kKinds) {
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t s = 0; s < 2; ++s) {
        const fl::ModelState init =
            fl::InitialStateFor(SpecFor(kind, kArchs[a], kSeeds[s]));
        const std::uint64_t got = Fnv1a(init.values());
        EXPECT_EQ(Hex(got), Hex(kPinned[Family(kind)][a][s]))
            << "kind " << static_cast<int>(kind) << " arch "
            << nn::ArchName(kArchs[a]) << " seed " << kSeeds[s];
      }
    }
  }
}

TEST(InitDraws, CipPerturbationAndAttackModelArePinned) {
  // [arch][seed], arch in kArchs order.
  constexpr std::uint64_t kPinnedT[4][2] = {
      {0xc8bf5e7e5b095585ull, 0xe982e061ab993180ull},
      {0xc8bf5e7e5b095585ull, 0xe982e061ab993180ull},
      {0xc8bf5e7e5b095585ull, 0xe982e061ab993180ull},
      {0xbd5449ee8a9a7807ull, 0x1d4d12c104104891ull}};
  constexpr std::uint64_t kPinnedAttacker[4][2] = {
      {0x8c82b63a90c35b60ull, 0xb065445ae1d37cb3ull},
      {0x8c82b63a90c35b60ull, 0xb065445ae1d37cb3ull},
      {0x8c82b63a90c35b60ull, 0xb065445ae1d37cb3ull},
      {0x8c82b63a90c35b60ull, 0xb065445ae1d37cb3ull}};
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t s = 0; s < 2; ++s) {
      const auto cip = fl::MakeCipClient(
          SpecFor(fl::ClientKind::kCip, kArchs[a], kSeeds[s]));
      EXPECT_EQ(Hex(Fnv1a(cip->perturbation().flat())),
                Hex(kPinnedT[a][s]))
          << "arch " << nn::ArchName(kArchs[a]) << " seed " << kSeeds[s];
      // A fresh AdvReg client's state is its section header plus the attack
      // model's parameters (both optimizers are still empty).
      const auto ar = fl::MakeClient(
          SpecFor(fl::ClientKind::kAdvReg, kArchs[a], kSeeds[s]));
      EXPECT_EQ(Hex(Digest(ar->ExportState())), Hex(kPinnedAttacker[a][s]))
          << "arch " << nn::ArchName(kArchs[a]) << " seed " << kSeeds[s];
    }
  }
}

void ExpectSameState(const fl::ModelState& a, const fl::ModelState& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.size() * sizeof(float)),
            0)
      << what;
}

TEST(InitDraws, ClientWithoutAGlobalMatchesOneGivenTheInitialState) {
  for (const fl::ClientKind kind : kKinds) {
    for (const nn::Arch arch : kArchs) {
      const fl::ClientSpec spec = SpecFor(kind, arch, /*seed=*/3);
      const std::string what = "kind " +
                               std::to_string(static_cast<int>(kind)) +
                               " arch " + nn::ArchName(arch);
      const fl::ModelState init = fl::InitialStateFor(spec);

      // Evaluation before any training or broadcast.
      const auto eval_own = fl::MakeClient(spec);
      const auto eval_given = fl::MakeClient(spec);
      eval_given->SetGlobal(init);
      EXPECT_EQ(eval_own->EvalAccuracy(spec.data),
                eval_given->EvalAccuracy(spec.data))
          << what;

      // Training before any broadcast.
      const auto own = fl::MakeClient(spec);
      const auto given = fl::MakeClient(spec);
      given->SetGlobal(init);
      const fl::ModelState own_update =
          own->TrainLocal(fl::MakeRoundContext(5, 1, 0));
      const fl::ModelState given_update =
          given->TrainLocal(fl::MakeRoundContext(5, 1, 0));
      ExpectSameState(own_update, given_update, what);
      EXPECT_EQ(own->LastTrainLoss(), given->LastTrainLoss()) << what;
      EXPECT_EQ(Digest(own->ExportState()), Digest(given->ExportState()))
          << what;
      EXPECT_EQ(own->EvalAccuracy(spec.reference),
                given->EvalAccuracy(spec.reference))
          << what;
    }
  }
}

TEST(InitDraws, ColdClientThatReceivesTheGlobalDrawsNoWeights) {
  for (const fl::ClientKind kind :
       {fl::ClientKind::kCip, fl::ClientKind::kLegacy}) {
    const fl::ClientSpec spec = SpecFor(kind, nn::Arch::kMLP, /*seed=*/4);
    const std::string what = "kind " + std::to_string(static_cast<int>(kind));
    const fl::ModelState global = fl::InitialStateFor(spec);
    fl::ClientStore store = fl::MakeClientStore({spec, spec});

    // Enrollment and one full round trip through the store: checkout, build
    // (factory + restore), SetGlobal, TrainLocal, export, checkin.
    std::uint64_t before = nn::internal::InitDrawCount();
    store.Evict(0, *store.Materialize(0));
    for (std::size_t round = 1; round <= 2; ++round) {
      std::string record = store.Checkout(0);
      // A legacy client's only state is its momentum: no record until it
      // has trained once.
      EXPECT_TRUE(!record.empty() ||
                  (round == 1 && kind == fl::ClientKind::kLegacy))
          << what;
      fl::ClientStore::Handle client = store.Build(0, record);
      client->SetGlobal(global);
      client->TrainLocal(fl::MakeRoundContext(6, round, 0));
      store.Checkin(0, store.Export(0, *client));
    }
    EXPECT_EQ(nn::internal::InitDrawCount() - before, 0u) << what;

    // The counter does count: a client trained before any global draws
    // every weight of its model, once.
    std::size_t weights = 0;
    const auto count_weights = [&](const std::vector<nn::Parameter*>& ps) {
      for (const nn::Parameter* p : ps) {
        if (p->init_fan_in > 0) weights += p->value.size();
      }
    };
    if (kind == fl::ClientKind::kCip) {
      count_weights(nn::MakeDualChannelClassifier(spec.model)->Parameters());
    } else {
      count_weights(nn::MakeClassifier(spec.model)->Parameters());
    }
    ASSERT_GT(weights, 0u);
    before = nn::internal::InitDrawCount();
    fl::ClientStore::Handle fresh = store.Materialize(1);
    fresh->TrainLocal(fl::MakeRoundContext(6, 1, 1));
    fresh->TrainLocal(fl::MakeRoundContext(6, 2, 1));
    EXPECT_EQ(nn::internal::InitDrawCount() - before, weights) << what;
  }
}

}  // namespace
}  // namespace cip
