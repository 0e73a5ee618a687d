// Client lifecycle store: the ownership API between a federated run and its
// fleet.
//
// The round engine used to require every client as a live object for the
// whole run, which caps a simulation at a few hundred clients. ClientStore
// inverts the ownership: a *cold* store registers clients as records — the
// factory that can construct client id k, plus k's serialized cross-round
// state (optimizer moments, the CIP secret perturbation t) from the PR 4
// ExportState/RestoreState contract — and only the round's sampled cohort is
// ever built into live objects, each on the runner that trains it and only
// for as long as it trains. Between participations a client is a byte blob
// in an LRU hot set with a configurable byte budget, spilling to fixed-slot
// shard files under StoreOptions::spill_dir; server memory is O(hot budget +
// cohort records + runners × one client), never O(registered fleet).
//
// Determinism contract: a record is the exact bytes of the client's
// ExportState, and RestoreState on a freshly constructed client of the same
// spec reproduces training bit-identically (docs/ROBUSTNESS.md). Hot-set
// size, spill-vs-resident and eviction order therefore cannot affect round
// results — only where the same bytes wait. docs/SCALE.md works the layout
// and the memory math; shard framing reuses the hostile-input-hardened
// fl/serialize primitives and validates every count/offset before sizing or
// seeking anything.
//
// Two compatibility modes keep small fixed fleets simple: a *live* store
// owns heap clients registered via Add() (objects persist across rounds,
// exactly the pre-store semantics), and a *borrowed* store wraps clients
// owned elsewhere (tests and benches that need to inspect live objects).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fl/client.h"

namespace cip::fl {

/// Cold-store tuning: how much serialized client state stays resident and
/// where the remainder spills.
struct StoreOptions {
  /// Byte budget for the LRU hot set of serialized client records. When an
  /// eviction pushes the resident total past the budget, least-recently-used
  /// records spill to shard files until it fits again. With no spill_dir the
  /// budget is not enforced (every record stays resident).
  std::size_t hot_bytes = std::size_t{64} << 20;
  /// Scratch directory for shard files; empty disables spilling. The store
  /// owns the directory's shard files: construction removes stale ones (a
  /// fresh store starts empty — checkpoints, not spill files, are the
  /// restart mechanism).
  std::string spill_dir;
  /// Client records per shard file: client id maps to shard id/shard_clients,
  /// directory slot id%shard_clients. Must be >= 1.
  std::size_t shard_clients = 1024;
};

/// Cumulative lifecycle counters, exposed for telemetry and benchmarks.
struct StoreStats {
  std::size_t hot_hits = 0;      ///< checkouts served from the hot set
  std::size_t cold_loads = 0;    ///< checkouts read from a shard file
  std::size_t evictions = 0;     ///< non-empty records checked back in
  std::size_t spills = 0;        ///< records pushed from hot set to shards
  std::size_t hot_bytes = 0;     ///< serialized bytes currently resident
  std::size_t hot_records = 0;   ///< records currently in the hot set
  std::size_t spilled_records = 0;  ///< records currently on disk only
};

/// Serialize one client's cross-round state as a shard record blob: record
/// magic, client id, tensor count, then fl/serialize-framed tensors.
std::string EncodeClientRecord(std::uint64_t id, const ClientState& state);

/// Parse a record blob back into a ClientState, verifying it belongs to
/// `expect_id`. Throws cip::CheckError on bad magic, id mismatch, hostile
/// tensor counts, truncation at any byte, or trailing bytes.
ClientState DecodeClientRecord(const std::string& blob,
                               std::uint64_t expect_id);

class ClientStore {
 public:
  /// Constructs client id on demand (cold mode). Must be pure per id: the
  /// same id always yields an identically configured client. It is called
  /// concurrently for distinct ids from the round engine's client phase
  /// (Build), so it must also be safe to run on several threads at once:
  /// read shared configuration only, keep any RNG local.
  using Factory = std::function<std::unique_ptr<ClientBase>(std::size_t)>;

  /// A built client. Owns the object in cold mode (destroyed when the handle
  /// dies — export and check its record in first if the state must
  /// survive); borrows it in live/borrowed mode.
  class Handle {
   public:
    Handle() = default;
    /// The live client, or nullptr for a default-constructed handle.
    ClientBase* get() const { return ptr_; }
    ClientBase& operator*() const { return *ptr_; }
    ClientBase* operator->() const { return ptr_; }
    /// True when the handle holds a live client.
    explicit operator bool() const { return ptr_ != nullptr; }

   private:
    friend class ClientStore;
    std::unique_ptr<ClientBase> owned_;
    ClientBase* ptr_ = nullptr;
  };

  /// Cold store: num_clients registered records, constructed through
  /// `factory` when sampled. CHECK-fails on num_clients == 0, a null
  /// factory, or opts.shard_clients == 0.
  ClientStore(std::size_t num_clients, Factory factory, StoreOptions opts);

  /// Live store: starts empty; register heap clients via Add(). The store
  /// owns them for its lifetime — the pre-store semantics for small fleets.
  ClientStore();

  /// Borrowed store: wraps clients owned by the caller, who must keep them
  /// alive for the store's lifetime.
  explicit ClientStore(std::span<ClientBase* const> clients);

  ClientStore(ClientStore&&) = default;
  ClientStore& operator=(ClientStore&&) = default;
  ClientStore(const ClientStore&) = delete;
  ClientStore& operator=(const ClientStore&) = delete;

  /// Register a client with the next id (live mode only; CHECK-fails
  /// otherwise). Returns the non-owning pointer for post-run inspection.
  ClientBase* Add(std::unique_ptr<ClientBase> client);

  /// Registered fleet size (cold capacity, or clients added/borrowed).
  std::size_t num_clients() const;

  /// True for a cold store (records + factory; clients are ephemeral).
  bool cold() const { return mode_ == Mode::kCold; }

  // A client's round trip through the store is four steps. Checkout and
  // Checkin change the store and are coordinator-only: call them serially,
  // outside parallel regions. Build and Export touch no store state and may
  // run concurrently for distinct ids (the round engine runs them on the
  // client phase's runners).
  //
  //   record = Checkout(id)          coordinator
  //   handle = Build(id, record)     any thread
  //   ... SetGlobal, TrainLocal ...
  //   record = Export(id, *handle)   any thread; then drop the handle
  //   Checkin(id, record)            coordinator, ascending id order

  /// Take `id`'s record out of the store: the hot blob or the shard slot's
  /// bytes, counted as a hot hit or a cold load, or an empty string when the
  /// client has no record (never participated, or stateless). Ownership of
  /// the state moves to the caller (the record's state_version moves). A
  /// shard that fails validation throws with the store unchanged. Live and
  /// borrowed modes return an empty string and count nothing.
  std::string Checkout(std::size_t id);

  /// The client for `id`. Cold mode constructs it through the factory and
  /// restores `record` when it is non-empty; live and borrowed modes return
  /// the persistent object and ignore `record`. Thread-safe for distinct ids.
  Handle Build(std::size_t id, const std::string& record) const;

  /// What the store files for a trained `client`: its ExportState encoded as
  /// `id`'s record in cold mode (empty for a stateless client), nothing in
  /// live and borrowed modes, whose objects persist. Thread-safe.
  std::string Export(std::size_t id, const ClientBase& client) const;

  /// File an exported record (cold mode; no-op in live/borrowed modes). A
  /// non-empty record counts an eviction, enters the hot set as the most
  /// recent entry and spills least-recently-used records until the budget
  /// holds; an empty one leaves `id` without a record, so a stateless client
  /// rebuilds fresh. Coordinator-only.
  void Checkin(std::size_t id, std::string record);

  /// Build(id, Checkout(id)), for callers outside a round. A cold build that
  /// throws (a corrupt record) puts the record back, so a failed load never
  /// turns a stateful client into a fresh one on retry. Coordinator-only.
  Handle Materialize(std::size_t id);

  /// Checkin(id, Export(id, client)): re-serialize a trained client's state
  /// back into the store. Coordinator-only.
  void Evict(std::size_t id, const ClientBase& client);

  /// Sparse (id, state) snapshot of every stateful client, sorted by id —
  /// the checkpoint payload. Cold mode decodes records (resident or
  /// spilled) without touching LRU order; live/borrowed modes export from
  /// the live objects.
  std::vector<std::pair<std::uint64_t, ClientState>> ExportStates() const;

  /// Non-destructive single-client state read: decode `id`'s state into
  /// `out` without materializing, erasing the record, or touching LRU
  /// recency (an observer, like ExportStates). Cold mode reads the hot blob
  /// or shard slot; live/borrowed modes export from the live object.
  /// Returns false when the client has no state (never participated, or its
  /// last ExportState was empty). This is the serving t-cache's read path —
  /// Checkout would move the record's ownership out of the store.
  bool PeekState(std::size_t id, ClientState& out) const;

  /// Monotonic per-id counter that moves every time `id`'s stored record
  /// changes (Checkin re-serialization, Checkout's ownership transfer out
  /// of the store, checkpoint restore). Cache keys derived from PeekState
  /// stay valid exactly while this value is unchanged. Cold mode only:
  /// live/borrowed stores mutate their objects in place, so their consumers
  /// must invalidate explicitly. Starts at 0 for an untouched id.
  std::uint64_t state_version(std::size_t id) const;

  /// Install a checkpoint's sparse states. Cold mode re-encodes them as
  /// records; live/borrowed modes RestoreState every client (absent ids get
  /// an empty state, which stateless clients accept).
  void RestoreStates(
      const std::vector<std::pair<std::uint64_t, ClientState>>& states);

  /// Deliver the final aggregate to persistent clients (live/borrowed
  /// modes; inference uses the global model). Cold mode is a no-op — a cold
  /// record has no model to install, and the final global lives in the run
  /// log/checkpoint.
  void BroadcastFinal(const ModelState& global);

  /// Cumulative lifecycle counters (see StoreStats).
  const StoreStats& stats() const { return stats_; }

 private:
  enum class Mode { kCold, kLive, kBorrowed };

  void CheckId(std::size_t id) const;
  void InsertRecord(std::size_t id, std::string blob);
  /// Drop `id`'s record; returns its blob if it was resident (else empty).
  std::string EraseRecord(std::size_t id);
  void SpillOverBudget();
  std::string ShardPath(std::size_t shard) const;
  void WriteShardRecord(std::size_t id, const std::string& blob);
  std::string ReadShardRecord(std::size_t id) const;

  Mode mode_ = Mode::kLive;
  std::size_t num_clients_ = 0;
  Factory factory_;
  StoreOptions opts_;
  StoreStats stats_;

  // Live/borrowed fleets. ClientStore is the one sanctioned owner of a
  // ClientBase vector (lint rule `client-vector`).
  std::vector<std::unique_ptr<ClientBase>> owned_;
  std::vector<ClientBase*> clients_;

  // Cold records: `spilled_` marks ids whose record lives only in a shard
  // file; resident blobs sit in `hot_` with `lru_` tracking recency (front =
  // most recent). All ordered containers: iteration feeds checkpoints.
  std::map<std::size_t, std::string> hot_;
  std::set<std::size_t> spilled_;
  std::list<std::size_t> lru_;
  std::map<std::size_t, std::list<std::size_t>::iterator> lru_pos_;

  // Per-id record-change counters backing state_version(); absent = 0.
  std::map<std::size_t, std::uint64_t> state_versions_;
};

}  // namespace cip::fl
