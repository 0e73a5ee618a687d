// One-stop construction of FL clients.
//
// Experiment harnesses and table benches used to carry near-identical blocks
// that picked a client class, forwarded the right config struct, and built a
// matching initial broadcast state. ClientSpec folds all of that into one
// value: set `kind` plus the fields that kind reads, and MakeClient /
// InitialStateFor do the rest consistently everywhere.
//
// Lives in its own library (cip_fl_factory) because it sits *above* the
// concrete client libraries (cip_core, cip_defenses) in the dependency DAG,
// while the fl layer itself stays below them.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/cip_client.h"
#include "defenses/adv_reg.h"
#include "defenses/dp_sgd.h"
#include "defenses/hdp.h"
#include "defenses/mixup_mmd.h"
#include "defenses/relaxloss.h"
#include "fl/client.h"
#include "fl/client_store.h"

namespace cip::fl {

enum class ClientKind {
  kLegacy,    ///< plain FedAvg client
  kCip,       ///< the paper's input-perturbation defense
  kDpSgd,     ///< local DP-SGD
  kHdp,       ///< handcrafted-DP (frozen random features + private head)
  kAdvReg,    ///< adversarial regularization
  kMixupMmd,  ///< mixup + MMD
  kRelaxLoss  ///< RelaxLoss
};

struct ClientSpec {
  ClientKind kind = ClientKind::kLegacy;
  nn::ModelSpec model;
  data::Dataset data;  ///< the client's local (member) data
  /// Authoritative local-training settings for every kind; for kCip it is
  /// copied into cip.train so callers configure the LR/batch/epochs once.
  TrainConfig train;
  std::uint64_t seed = 0;
  /// Kind-specific knobs; only the one matching `kind` is read.
  core::CipConfig cip;
  defenses::DpConfig dp;
  defenses::ArConfig ar;
  defenses::MmConfig mm;
  defenses::RlConfig rl;
  /// Non-member data from the same distribution: kAdvReg's reference set,
  /// kMixupMmd's validation set. Ignored by other kinds.
  data::Dataset reference;
  /// kHdp random-feature width multiplier.
  std::size_t hdp_feature_boost = 16;
};

/// Construct a client of spec.kind.
std::unique_ptr<ClientBase> MakeClient(const ClientSpec& spec);

/// Typed variant for callers that need CipClient-only accessors
/// (perturbation(), BlendedDataLoss()). CHECK-fails unless kind == kCip.
std::unique_ptr<core::CipClient> MakeCipClient(const ClientSpec& spec);

/// The initial broadcast state matching spec.kind's model architecture
/// (dual-channel for kCip, random-feature net for kHdp, plain otherwise).
ModelState InitialStateFor(const ClientSpec& spec);

/// Cold ClientStore over explicit per-client specs: client id k is
/// MakeClient(specs[k]), rebuilt on demand each time k is sampled. Use for
/// small-to-medium fleets whose local datasets are cheap to keep around.
ClientStore MakeClientStore(std::vector<ClientSpec> specs,
                            StoreOptions opts = {});

/// Cold ClientStore over a spec function: client id k is
/// MakeClient(spec_for(k)), so a million-client fleet never holds a million
/// specs (or datasets) at once — spec_for typically derives the client's
/// data partition from an id-seeded generator. spec_for must be pure: the
/// same id must always yield the same spec. It is called concurrently for
/// distinct ids from the round engine's client phase (ClientStore::Factory),
/// so it must read shared state only and keep any RNG local.
ClientStore MakeClientStore(std::size_t num_clients,
                            std::function<ClientSpec(std::size_t)> spec_for,
                            StoreOptions opts = {});

}  // namespace cip::fl
