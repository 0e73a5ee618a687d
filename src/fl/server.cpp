#include "fl/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "fl/aggregate.h"
#include "fl/sampler.h"

namespace cip::fl {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  // CIP_ANALYZE_OK(det-wallclock): telemetry helper: durations land in RoundStats, never in round results
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

float LrScaleForRound(float decay, std::size_t every, std::size_t round) {
  if (every == 0) return 1.0f;
  const auto steps = static_cast<float>((round - 1) / every);
  return std::pow(decay, steps);
}

void FlOptions::Validate(std::size_t num_clients) const {
  CIP_CHECK_MSG(rounds > 0, "FlOptions.rounds must be >= 1");
  CIP_CHECK_MSG(participation > 0.0f && participation <= 1.0f,
                "FlOptions.participation must be in (0, 1]");
  std::size_t prev = 0;
  for (const std::size_t r : snapshot_rounds) {
    CIP_CHECK_MSG(r >= 1 && r <= rounds,
                  "FlOptions.snapshot_rounds entries must be 1-based rounds "
                  "in [1, rounds]");
    CIP_CHECK_MSG(r > prev,
                  "FlOptions.snapshot_rounds must be strictly increasing");
    prev = r;
  }
  CIP_CHECK_MSG(lr_decay > 0.0f && lr_decay <= 1.0f,
                "FlOptions.lr_decay must be in (0, 1]");
  faults.Validate();
  CIP_CHECK_MSG(round_timeout_seconds >= 0.0,
                "FlOptions.round_timeout_seconds must be >= 0");
  CIP_CHECK_MSG(min_quorum >= 1, "FlOptions.min_quorum must be >= 1");
  CIP_CHECK_MSG(max_retries == 0 || retry_backoff_rounds >= 1,
                "FlOptions.retry_backoff_rounds must be >= 1 when retries "
                "are enabled");
  CIP_CHECK_MSG(checkpoint_every == 0 || !checkpoint_path.empty(),
                "FlOptions.checkpoint_every needs a checkpoint_path");
  CIP_CHECK_MSG(stop_after_round == 0 || stop_after_round <= rounds,
                "FlOptions.stop_after_round must be within [1, rounds]");
  // Fleet-dependent checks, skipped for the fleet-independent construction
  // pass (num_clients == 0). Note there is no zero-cohort rejection any
  // more: CohortSize clamps to at least one sampled client.
  if (num_clients == 0) return;
  CIP_CHECK_MSG(min_quorum <= num_clients,
                "FlOptions.min_quorum = " << min_quorum
                                          << " can never be met by "
                                          << num_clients << " clients");
}

FederatedAveraging::FederatedAveraging(ModelState initial, FlOptions options)
    : global_(std::move(initial)), options_(std::move(options)) {
  options_.Validate();
  CIP_CHECK(!global_.empty());
}

FlLog FederatedAveraging::Run(ClientStore& store, std::uint64_t run_seed) {
  return RunRounds(store, run_seed, /*start_round=*/1,
                   /*telemetry_offset=*/0, /*retries=*/{});
}

FlLog FederatedAveraging::Resume(ClientStore& store, const Checkpoint& ckpt) {
  options_.Validate(store.num_clients());
  CIP_CHECK_MSG(ckpt.total_rounds == options_.rounds,
                "checkpoint is from a " << ckpt.total_rounds
                                        << "-round run; FlOptions.rounds is "
                                        << options_.rounds);
  CIP_CHECK(!ckpt.global.empty());
  global_ = ckpt.global;
  // The store rejects checkpoint ids outside its fleet — the sparse v2
  // analogue of the old dense size-mismatch check.
  store.RestoreStates(ckpt.client_states);
  return RunRounds(store, ckpt.run_seed, ckpt.next_round,
                   ckpt.telemetry_rounds, ckpt.retries);
}

FlLog FederatedAveraging::RunRounds(ClientStore& store, std::uint64_t run_seed,
                                    std::size_t start_round,
                                    std::size_t telemetry_offset,
                                    std::vector<RetryState> retries) {
  options_.Validate(store.num_clients());
  const bool faults_on = options_.faults.enabled();
  const std::size_t last_round =
      options_.stop_after_round > 0 ? options_.stop_after_round
                                    : options_.rounds;
  FlLog log;
  for (std::size_t round = start_round; round <= last_round; ++round) {
    RoundStats stats;
    stats.round = round;
    const StoreStats store_before = store.stats();
    // --- Coordinator: broadcast (possibly tampered) global and sample this
    // round's cohort (fl/sampler.h), then merge in faulted clients whose
    // retry backoff has elapsed.
    // CIP_ANALYZE_OK(det-wallclock): telemetry: broadcast duration recorded in RoundStats
    const auto broadcast_t0 = Clock::now();
    const ModelState broadcast =
        tamper_ ? tamper_(round, global_) : global_;
    std::vector<std::size_t> participants = SampleCohort(
        run_seed, round, store.num_clients(), options_.participation);
    // An entry is "due" while the client still has retry budget left;
    // exhausted entries stay in the queue (so fresh faults cannot restart
    // the cycle) until a successful delivery clears them.
    const auto retry_due = [&](std::size_t k) {
      for (const RetryState& r : retries) {
        if (r.client == k && r.attempts <= options_.max_retries &&
            r.next_round <= round) {
          return true;
        }
      }
      return false;
    };
    if (!retries.empty()) {
      bool merged = false;
      for (const RetryState& r : retries) {
        if (r.attempts <= options_.max_retries && r.next_round <= round &&
            std::find(participants.begin(), participants.end(), r.client) ==
                participants.end()) {
          participants.push_back(r.client);
          merged = true;
        }
      }
      if (merged) std::sort(participants.begin(), participants.end());
    }

    // --- Coordinator: fault decisions and record checkout, serial (the
    // store's bookkeeping is coordinator-only). A dropout went offline
    // before it could download the global, so its record stays filed;
    // everyone else's record leaves the store for the duration of the round.
    const std::size_t m = participants.size();
    std::vector<std::string> records(m);
    stats.clients.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t k = participants[i];
      ClientRoundStats& cs = stats.clients[i];
      cs.round = round;
      cs.client = k;
      cs.retried = retry_due(k);
      cs.fault = faults_on ? options_.faults.Decide(run_seed, round, k)
                           : FaultKind::kNone;
      if (cs.fault == FaultKind::kDropout) {
        // Device went offline before training started: no local work, no
        // update, no loss report.
        cs.dropped = true;
        continue;
      }
      records[i] = store.Checkout(k);
    }
    stats.broadcast_seconds = SecondsSince(broadcast_t0);

    // --- Parallel client phase, dispatched onto the persistent worker pool.
    // Each cohort member lives out its round on one runner: built from its
    // record, trained, exported back into its records slot and destroyed
    // (a live or borrowed store lends its persistent object instead), so at
    // most one client per runner is alive. Each runner touches only its own
    // client, its own records/updates/stats slot and its own losses element;
    // the RNG stream in each context is derived from (run_seed, round,
    // client id), so the result is independent of how — or on which
    // dispatch backend — workers are scheduled.
    const float lr_scale =
        LrScaleForRound(options_.lr_decay, options_.lr_decay_every, round);
    std::vector<ModelState> updates(m);
    std::vector<float> losses(m, 0.0f);
    // CIP_ANALYZE_OK(det-wallclock): telemetry: per-round train duration recorded in RoundStats
    const auto train_t0 = Clock::now();
    ParallelForCoarse(
        0, m,
        [&](std::size_t i) {
          ClientRoundStats& cs = stats.clients[i];
          if (cs.fault == FaultKind::kDropout) return;
          const std::size_t k = participants[i];
          ClientStore::Handle client = store.Build(k, records[i]);
          RoundContext ctx = MakeRoundContext(run_seed, round, k, lr_scale);
          ctx.telemetry = &cs;
          // CIP_ANALYZE_OK(det-wallclock): telemetry: per-client train duration recorded in RoundStats
          const auto client_t0 = Clock::now();
          client->SetGlobal(broadcast);
          updates[i] = client->TrainLocal(std::move(ctx));
          cs.train_seconds = SecondsSince(client_t0);
          // A mid-round failure is exported too: its update was lost but its
          // private state advanced — exactly what a real device that crashed
          // after training would carry into its next participation.
          records[i] = store.Export(k, *client);
          if (cs.fault == FaultKind::kMidRoundFailure ||
              (cs.fault == FaultKind::kStraggler &&
               options_.round_timeout_seconds > 0.0 &&
               options_.faults.straggler_delay_seconds >
                   options_.round_timeout_seconds)) {
            // The client trained (its private state advanced) but the server
            // never received the update: crashed before upload, or delivered
            // past the round deadline.
            updates[i] = ModelState();
            cs.dropped = true;
            return;
          }
          cs.loss = client->LastTrainLoss();
          losses[i] = cs.loss;
        },
        options_.max_parallel_clients);
    stats.train_wall_seconds = SecondsSince(train_t0);

    // --- Coordinator: check the exported records back into the store in
    // ascending id order (participants are sorted, so index order is id
    // order); the store's LRU order and spills follow this order.
    for (std::size_t i = 0; i < m; ++i) {
      if (stats.clients[i].fault != FaultKind::kDropout) {
        store.Checkin(participants[i], std::move(records[i]));
      }
    }

    // --- Coordinator: deterministic fixed-order tree reduction over
    // survivors (fl/aggregate.h), streaming so at most O(log survivors)
    // partial sums are alive. The plain mean over survivors *is* the
    // renormalized FedAvg aggregate: each survivor's weight grows from 1/m
    // to 1/survivors.
    // CIP_ANALYZE_OK(det-wallclock): telemetry: aggregation duration recorded in RoundStats
    const auto aggregate_t0 = Clock::now();
    std::size_t survived = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (!stats.clients[i].dropped) ++survived;
    }
    stats.survivors = survived;
    std::vector<ModelState> survivors;
    if (options_.record_client_updates) survivors.reserve(survived);
    if (survived < options_.min_quorum) {
      CIP_CHECK_MSG(options_.quorum_policy != QuorumPolicy::kAbort,
                    "round " << round << " lost quorum: " << survived
                             << " survivors < min_quorum "
                             << options_.min_quorum);
      // Below quorum with kSkipRound: the global model is carried over
      // unchanged and the round is recorded as skipped.
      stats.skipped = true;
      if (options_.record_client_updates) {
        for (std::size_t i = 0; i < m; ++i) {
          if (!stats.clients[i].dropped) {
            survivors.push_back(std::move(updates[i]));
          }
        }
      }
    } else {
      TreeAccumulator acc;
      for (std::size_t i = 0; i < m; ++i) {
        if (stats.clients[i].dropped) continue;
        if (options_.record_client_updates) {
          acc.Add(updates[i]);
          survivors.push_back(std::move(updates[i]));
        } else {
          acc.Add(std::move(updates[i]));
        }
      }
      global_ = acc.FinishMean();
    }
    stats.aggregate_seconds = SecondsSince(aggregate_t0);

    // --- Retry bookkeeping (serial): successful delivery clears a pending
    // entry; a lost update schedules (or reschedules) one with exponential
    // backoff until the attempt budget runs out.
    if (options_.max_retries > 0 || !retries.empty()) {
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t k = participants[i];
        auto it = std::find_if(
            retries.begin(), retries.end(),
            [k](const RetryState& r) { return r.client == k; });
        if (!stats.clients[i].dropped) {
          if (it != retries.end()) retries.erase(it);
          continue;
        }
        if (options_.max_retries == 0) continue;
        if (it == retries.end()) {
          retries.push_back(RetryState{k, 0, 0});
          it = retries.end() - 1;
        }
        ++it->attempts;
        if (it->attempts <= options_.max_retries) {
          it->next_round =
              round + (options_.retry_backoff_rounds << (it->attempts - 1));
        }
        // Past the budget the entry is kept as exhausted (never due) so the
        // client is not re-enrolled until it delivers an update again.
      }
    }

    const StoreStats store_after = store.stats();
    stats.store_hot_hits = store_after.hot_hits - store_before.hot_hits;
    stats.store_cold_loads = store_after.cold_loads - store_before.cold_loads;
    stats.store_evictions = store_after.evictions - store_before.evictions;
    stats.store_spills = store_after.spills - store_before.spills;

    log.client_losses.push_back(std::move(losses));
    if (options_.record_client_updates) {
      log.client_updates.push_back(std::move(survivors));
    }
    if (std::find(options_.snapshot_rounds.begin(),
                  options_.snapshot_rounds.end(),
                  round) != options_.snapshot_rounds.end()) {
      log.global_snapshots.push_back(global_);
    }
    log.telemetry.rounds.push_back(std::move(stats));

    if (options_.checkpoint_every > 0 &&
        (round % options_.checkpoint_every == 0 || round == last_round)) {
      Checkpoint ckpt;
      ckpt.run_seed = run_seed;
      ckpt.total_rounds = options_.rounds;
      ckpt.next_round = round + 1;
      ckpt.telemetry_rounds = telemetry_offset + log.telemetry.rounds.size();
      ckpt.global = global_;
      // Sparse export: O(stateful participants), reading spilled records
      // straight from their shards — a crash while clients sit on disk
      // resumes from exactly the bytes that were spilled.
      ckpt.client_states = store.ExportStates();
      ckpt.retries = retries;
      SaveCheckpointFile(ckpt, options_.checkpoint_path);
    }
  }
  // Persistent clients see the final aggregate (inference uses the global
  // model); a cold store keeps it in the log/checkpoint instead.
  store.BroadcastFinal(global_);
  log.final_global = global_;
  return log;
}

}  // namespace cip::fl
