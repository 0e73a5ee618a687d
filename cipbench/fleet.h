// Workload fleets: the fixed definitions of cip_round's and fleet_churn's
// federations (serve_wire serves fleet_churn's fleet), built from the run
// seed through the public client factory and store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "data/synthetic.h"
#include "fl/client_factory.h"

namespace cipbench {

/// Fixed shape of a training workload. Everything random derives from the
/// run seed; the values are the workload definition.
struct TrainingDef {
  const char* name;
  bool image;                 ///< ChMnistLike ResNet vs Purchase50Like MLP
  std::size_t width;          ///< backbone width
  std::size_t fleet;          ///< registered clients (0 = thread budget)
  std::size_t cohort;         ///< sampled per round (0 = thread budget)
  std::size_t samples;        ///< local samples per client
  std::size_t perturb_steps;  ///< Step I iterations per round
  std::size_t batch;          ///< Step I and Step II batch size
  std::size_t rounds;         ///< rounds per Run (one episode)
  bool cold;                  ///< cold store with spilling vs live fleet
  std::size_t hot_bytes;      ///< cold store hot-set budget
  std::size_t shard_clients;  ///< cold store records per shard file
};

/// cip_round: a resident fleet exactly one cohort large (the thread budget),
/// so the conv GEMMs, Step I and the parallel client phase do the work and
/// the store does none.
inline constexpr TrainingDef kCipRound = {
    "cip_round", true, 8, 0, 0, 64, 5, 32, 8, false, 0, 0};

/// fleet_churn: thousands of tiny MLP clients behind a cold store whose hot
/// set holds a few dozen records, so the coordinator's sample / materialize
/// / evict / spill / fold path does the work and conv does none.
inline constexpr TrainingDef kFleetChurn = {
    "fleet_churn", false, 4, 2048, 32, 8, 2, 8, 96, true,
    std::size_t{1} << 20, 256};

/// The workload's data generator and the client spec of every id.
class Fleet {
 public:
  Fleet(const TrainingDef& def, std::uint64_t seed, std::size_t threads);

  std::size_t size() const { return fleet_; }
  std::size_t cohort() const { return cohort_; }
  float participation() const {
    return static_cast<float>(cohort_) / static_cast<float>(fleet_);
  }

  /// n fresh samples from the generator (stream `salt` of the run seed).
  cip::data::Dataset Sample(std::size_t n, std::uint64_t salt) const;

  /// Pure per id: the same id always yields the same spec.
  cip::fl::ClientSpec SpecFor(std::size_t k) const;

  const cip::fl::ClientSpec& proto() const { return proto_; }

 private:
  const TrainingDef& def_;
  std::uint64_t seed_;
  std::size_t fleet_ = 0, cohort_ = 0;
  cip::fl::ClientSpec proto_;
  std::unique_ptr<cip::data::SyntheticVision> vision_;
  std::unique_ptr<cip::data::SyntheticPurchase> purchase_;
};

/// A built fleet: the store the engine runs on and the initial global.
struct Built {
  cip::fl::ClientStore store;
  cip::fl::ModelState init;
};

/// Build the fleet's store. Every client is a TracedClient; a cold store's
/// factory is timed as an fl.factory span, and every client is enrolled (its
/// construction-time record filed) so that participations restore from the
/// store. `fleet` must outlive the returned store.
Built BuildFleet(const TrainingDef& def, const Fleet& fleet,
                 const std::string& spill_dir, double delay_ms);

/// Accuracy of the strongest loss-threshold attack (attacks::ObMalt with its
/// threshold set on the attacked pool itself) against `global` queried on
/// the raw path B(x, 0), i.e. without any client's t.
double MiaAccuracy(const cip::fl::ClientSpec& proto,
                   const cip::fl::ModelState& global,
                   const cip::data::Dataset& members,
                   const cip::data::Dataset& nonmembers);

}  // namespace cipbench
