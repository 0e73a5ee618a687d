// FedAvg server with the hooks the paper's internal threat model needs.
//
// Threat model (Sec. II-C / IV-B): a malicious server sees every client's
// local model each round (passive attack surface) and may send back altered
// global models (active attack surface). Both capabilities are modeled as
// optional hooks so honest training and attacks share one code path.
//
// Round engine: each round the coordinator thread broadcasts (and possibly
// tampers) the global, samples the cohort (fl/sampler.h: deterministic
// without-replacement sampling from a (run_seed, round)-derived stream),
// merges due retries, and checks each sampled client's record out of the
// ClientStore (fl/client_store.h). The cohort then runs on ParallelForCoarse
// workers drawn from the persistent pool (common/parallel.h): each member
// is built from its record, receives the global, trains, is exported back
// to a record and destroyed on one runner, so at most one client per runner
// is alive. A client running on a pool worker is inside a parallel region,
// so the GEMM kernels it calls run serially inline on that worker —
// client-level parallelism is the outermost (and only) fan-out. The
// coordinator checks the records back into the store in ascending id order,
// and surviving updates stream through a fixed-order tree reduction
// (fl/aggregate.h). Because every context's RNG stream is a pure function
// of (run seed, round, client id) and every fold order is fixed, results
// are bit-identical for any CIP_THREADS value, either dispatch backend
// (pool or spawned threads, common/parallel.h), any hot-set byte budget,
// and spilled-vs-resident client records. Server memory is O(hot budget +
// cohort records + runners × one client) plus the cohort's updates, never
// O(registered fleet).
//
// Fault tolerance: an FlOptions::faults plan injects deterministic client
// dropouts, mid-round failures and stragglers (fl/fault.h); the engine
// degrades gracefully by averaging the surviving updates (FedAvg weight
// renormalization falls out of the plain mean over survivors), skipping or
// aborting rounds that fall below min_quorum, and retrying faulted clients
// with bounded exponential backoff. A dropped-out client is never built
// (the device went offline before downloading the global); a mid-round
// failure trains and is exported — its private state advanced even though
// the update was lost. Periodic checkpoints (fl/checkpoint.h) plus
// Resume() make crash-at-round-k + resume bit-identical to an uninterrupted
// run, including crashes while client records sit in shard files;
// docs/ROBUSTNESS.md and docs/SCALE.md spell out the semantics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fl/checkpoint.h"
#include "fl/client.h"
#include "fl/client_store.h"
#include "fl/fault.h"
#include "fl/model_state.h"
#include "fl/telemetry.h"

namespace cip::fl {

/// What the round engine does when a round's survivors fall below
/// FlOptions::min_quorum.
enum class QuorumPolicy {
  /// Skip aggregation: the global model is unchanged, the round is recorded
  /// with RoundStats::skipped = true, and the run continues.
  kSkipRound,
  /// Treat quorum loss as fatal: CHECK-fail (throws cip::CheckError).
  kAbort,
};

/// Server-side learning-rate scale for 1-based `round`: one `decay` factor
/// per completed block of `every` rounds (every == 0: constant 1). Both
/// round engines (FederatedAveraging and net::AsyncRoundEngine) broadcast
/// this; matching it is part of the wire/in-process bit-identity contract.
float LrScaleForRound(float decay, std::size_t every, std::size_t round);

struct FlOptions {
  std::size_t rounds = 10;
  /// Fraction of clients sampled per round (FedAvg partial participation).
  /// The cohort size is floor(participation * num_clients) clamped to at
  /// least one client (fl/sampler.h) — a small fleet with a small fraction
  /// still trains someone every round.
  float participation = 1.0f;
  /// Record every client's returned state each round (malicious-server
  /// passive observation; memory-heavy, off by default). Only delivered
  /// updates are recorded — a dropped client's state never reaches the
  /// server, so it is not part of the observation surface.
  bool record_client_updates = false;
  /// Record the aggregated global model at these rounds (1-based round
  /// indices, strictly increasing, each within [1, rounds]; the paper
  /// attacks "the last several iterations").
  std::vector<std::size_t> snapshot_rounds;
  /// Server-side learning-rate schedule broadcast to clients through
  /// RoundContext::lr_scale: multiply by lr_decay every lr_decay_every
  /// rounds (0 = off, scale stays 1).
  float lr_decay = 0.5f;
  std::size_t lr_decay_every = 0;
  /// Worker-thread budget for the per-round client phase; 0 means
  /// ParallelThreads() (i.e. CIP_THREADS / hardware default).
  std::size_t max_parallel_clients = 0;

  /// Deterministic fault injection (dropouts / mid-round failures /
  /// stragglers); disabled by default. See fl/fault.h.
  FaultPlan faults;
  /// Per-round delivery deadline in *simulated* seconds. A straggler whose
  /// FaultPlan::straggler_delay_seconds exceeds this is dropped from the
  /// round; 0 disables the deadline (late updates are always accepted).
  /// Never compared against wall-clock — that would break bit-identity.
  double round_timeout_seconds = 0.0;
  /// Minimum surviving updates required to aggregate a round; rounds below
  /// it follow quorum_policy. At least 1 (an empty mean is undefined).
  std::size_t min_quorum = 1;
  /// What to do when survivors < min_quorum (skip the round by default).
  QuorumPolicy quorum_policy = QuorumPolicy::kSkipRound;
  /// Bounded retry of faulted clients: a client whose update was lost is
  /// re-invited up to max_retries times (0 disables retries), waiting
  /// retry_backoff_rounds * 2^(attempt-1) rounds between attempts.
  std::size_t max_retries = 0;
  std::size_t retry_backoff_rounds = 1;

  /// Write a Checkpoint to checkpoint_path after every checkpoint_every-th
  /// round (0 disables checkpointing). The file is overwritten in place;
  /// the run can later continue from it via FederatedAveraging::Resume.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Stop after this 1-based round, returning the partial log (0 = run to
  /// completion). Used to run in resumable chunks and, in tests, to
  /// simulate a crash at round k.
  std::size_t stop_after_round = 0;

  /// CHECK-fails (throws cip::CheckError) on out-of-domain settings.
  /// Called by FederatedAveraging at construction with the default
  /// num_clients = 0 (fleet-independent checks only), and again at the top
  /// of Run()/Resume() with the store's actual fleet size, which adds the
  /// fleet-dependent checks (min_quorum must be satisfiable).
  void Validate(std::size_t num_clients = 0) const;
};

struct FlLog {
  /// Aggregated global model after the final round.
  ModelState final_global;
  /// Globals at FlOptions::snapshot_rounds (same order).
  std::vector<ModelState> global_snapshots;
  /// [round][survivor] client states, if record_client_updates (equal to
  /// [round][client] under full participation with no faults).
  std::vector<std::vector<ModelState>> client_updates;
  /// [round][participant] mean local training loss, aligned with the
  /// round's sorted cohort (RoundStats::clients order; 0 for participants
  /// that did not deliver an update that round). O(cohort) per round — a
  /// million-client fleet does not appear here, only its sampled cohorts.
  std::vector<std::vector<float>> client_losses;
  /// Per-round wall-clock, loss, fault and store-lifecycle telemetry
  /// (always recorded; cheap). On Resume, covers only the resumed rounds.
  RoundTelemetry telemetry;
};

class FederatedAveraging {
 public:
  /// Called with the honest aggregate before broadcast; an active malicious
  /// server returns an altered state. (round is 1-based.)
  using GlobalTamper =
      std::function<ModelState(std::size_t round, const ModelState& honest)>;

  FederatedAveraging(ModelState initial, FlOptions options);

  /// Install a malicious-server hook applied to every round's aggregate.
  void set_tamper(GlobalTamper tamper) { tamper_ = std::move(tamper); }

  /// Run the configured number of rounds over the store's fleet. run_seed
  /// is the root of every RNG stream in the run (cohort sampling, each
  /// client's per-round stream, and fault decisions); two runs with the
  /// same seed, store contents, and options produce bit-identical logs
  /// regardless of thread count, hot-set budget, or spill configuration.
  FlLog Run(ClientStore& store, std::uint64_t run_seed);

  /// Continue an interrupted run from a checkpoint: restores the global
  /// model, the stateful clients' private state and the retry queue, then
  /// executes rounds [ckpt.next_round, rounds]. The store must describe the
  /// same fleet (same size, same per-id construction) as the run that wrote
  /// the checkpoint, and options.rounds must equal ckpt.total_rounds; the
  /// resumed tail is then bit-identical to the uninterrupted run's.
  FlLog Resume(ClientStore& store, const Checkpoint& ckpt);

 private:
  FlLog RunRounds(ClientStore& store, std::uint64_t run_seed,
                  std::size_t start_round, std::size_t telemetry_offset,
                  std::vector<RetryState> retries);

  ModelState global_;
  FlOptions options_;
  GlobalTamper tamper_;
};

}  // namespace cip::fl
