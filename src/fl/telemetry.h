// Round telemetry for the federated round engine.
//
// The server records wall-clock and loss figures for every round it runs —
// per-client local-training time plus per-round broadcast/aggregate time —
// into FlLog::telemetry. Defense clients may additionally fill the
// step1/step2 split through RoundContext::telemetry (the CIP client reports
// its Eq. 3 perturbation step and Eq. 4 model step separately, which is what
// Table XI measures). WriteJsonl turns the whole run into one JSON object
// per round for offline analysis.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "fl/fault.h"

namespace cip::fl {

/// Timings and loss for one client within one round.
struct ClientRoundStats {
  std::size_t round = 0;   ///< 1-based round index
  std::size_t client = 0;  ///< index into the Run() clients span
  float loss = 0.0f;       ///< mean local training loss (LastTrainLoss)
  double train_seconds = 0.0;  ///< SetGlobal + TrainLocal wall-clock (not
                               ///< the client's build or export)
  /// Defense-internal split, filled by the client when it has one (CIP:
  /// Step I perturbation / Step II model training). Zero when unused.
  double step1_seconds = 0.0;
  double step2_seconds = 0.0;
  /// Injected fault for this (round, client); kNone for a healthy round.
  FaultKind fault = FaultKind::kNone;
  /// True when the client's update was excluded from aggregation (dropout,
  /// mid-round failure, or a straggler past the round timeout).
  bool dropped = false;
  /// True when this participation is a retry of an earlier faulted round.
  bool retried = false;
};

/// Coordinator-side timings for one round. The three timed spans are
/// disjoint and do not cover the whole round: checking the exported records
/// back into the ClientStore (between the client phase and the reduction,
/// spills included) falls in no field.
struct RoundStats {
  std::size_t round = 0;            ///< 1-based round index
  /// Everything before the client phase: the tamper hook, participant
  /// sampling, merging due retries, fault decisions, and ClientStore
  /// Checkout of the cohort's records (including cold loads from shard
  /// files). Client construction is not in it.
  double broadcast_seconds = 0.0;
  /// Wall-clock of the (parallel) client phase: each member's build
  /// (factory + RestoreState), SetGlobal, TrainLocal, export and
  /// destruction.
  double train_wall_seconds = 0.0;
  double aggregate_seconds = 0.0;   ///< fixed-order FedAvg reduction
  /// Updates aggregated this round (participants minus dropped clients).
  std::size_t survivors = 0;
  /// True when survivors fell below FlOptions::min_quorum and the round was
  /// skipped (global model unchanged).
  bool skipped = false;
  /// Updates that were trained against an older round's global and folded
  /// into this round's aggregate — the asynchronous-aggregation path of the
  /// socket server (net/round_engine.h). Always 0 for the in-process
  /// engine, whose rounds are synchronous barriers.
  std::size_t folded_stragglers = 0;
  /// ClientStore lifecycle counters for this round (all zero for live
  /// fleets, whose objects persist): cohort checkouts served from the hot
  /// set vs read back from shard files, trained clients' records checked
  /// back in, and records pushed out to shards by the hot-set byte budget.
  std::size_t store_hot_hits = 0;
  std::size_t store_cold_loads = 0;
  std::size_t store_evictions = 0;
  std::size_t store_spills = 0;
  std::vector<ClientRoundStats> clients;  ///< one entry per participant
};

/// Telemetry for a whole federated run.
struct RoundTelemetry {
  std::vector<RoundStats> rounds;

  /// Write one JSON object per round (JSON Lines).
  void WriteJsonl(std::ostream& os) const;
};

}  // namespace cip::fl
