// Batched CIP inference serving engine — the system's heavy-traffic front
// door (ROADMAP item 4).
//
// Deployment story: millions of clients each hold a private perturbation t
// and query the shared dual-channel model with blended inputs B(x, t)
// (Eq. 2, core/blend.h). ServeEngine turns that into a throughput workload:
//
//  * Per-client t lookup through a version-keyed LRU cache backed by the
//    PR 8 ClientStore. Reads use ClientStore::PeekState (non-destructive —
//    Checkout would move record ownership out of the store) and are
//    keyed on ClientStore::state_version, so a client that trains between
//    queries is re-read exactly once (counted as `t_stale`), while the
//    steady state is a pure map hit with zero allocations. Never-
//    participated clients materialize ephemerally through the store's pure
//    factory for their construction-time t.
//  * Fused blend+forward: Enqueue copies request rows into a grow-once
//    arena; Flush packs whole requests into [ΣN, ...] dual-channel chunks
//    of at most max_batch_rows rows, blends every client's rows directly
//    into the shared channel arenas (core::BlendRowsInto, mask-free) and
//    runs ONE EvalForward per chunk — the PackedB prepacked weights and the
//    SIMD GEMM kernels amortize across clients instead of being
//    re-dispatched per caller.
//  * Allocation-free steady state: all staging (input arena, channel
//    arenas, logits) uses the capacity-reusing Tensor::Resize discipline,
//    and the model side runs through Module::EvalForward. After a warmup
//    flush at the largest batch, serving performs zero element-buffer
//    allocations (tests/test_alloc_free.cpp pins this at batch 1/16/128).
//
// Determinism: every op on the serve path is per-sample, so a row's logits
// depend only on (client t, row bytes) and the active GEMM regime — the
// same request sequence yields bit-identical logits on every run, and the
// wire front door (net/server.h, kQuery) is bit-identical to an in-process
// Serve of the same requests. Chunk composition may move a GEMM between the
// streaming and blocked regimes, whose results agree within the pinned
// kernel tolerance (docs/KERNELS.md), so cross-batch-size comparisons are
// tolerance-level, not bitwise. docs/SERVING.md works the full contract.
//
// Threading: the engine is single-caller (the server event loop); the fused
// forward parallelizes internally through the worker pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "core/blend.h"
#include "fl/client_store.h"
#include "nn/dual_channel.h"
#include "tensor/tensor.h"

namespace cip::serve {

/// Engine tuning; Validate() CHECK-fails on out-of-domain settings.
struct ServeOptions {
  /// Blending parameters applied to every query (Eq. 2). Clients share the
  /// run's alpha; only t is per-client.
  core::BlendConfig blend;
  /// Fused-forward cap: Flush packs whole requests into chunks of at most
  /// this many rows (a single request larger than the cap forms its own
  /// chunk — requests are never split, so one client's rows always share a
  /// forward). Also the natural warmup batch size.
  std::size_t max_batch_rows = 128;
  /// LRU capacity of the per-client t cache, in clients. Eviction drops the
  /// cached tensor; the next query for that client re-reads the store.
  std::size_t t_cache_entries = 4096;

  /// CHECK-fails (throws cip::CheckError) on zero caps or a blend config
  /// outside its domain (alpha ∉ [0,1), clip_lo ≥ clip_hi).
  void Validate() const;
};

/// Cumulative serving counters, exposed for telemetry and benchmarks.
struct ServeStats {
  std::size_t queries = 0;      ///< Enqueue calls accepted
  std::size_t rows = 0;         ///< total sample rows served through Flush
  std::size_t batches = 0;      ///< fused dual-channel forwards dispatched
  std::size_t t_hits = 0;       ///< t-cache hits (version still current)
  std::size_t t_misses = 0;     ///< t-cache misses (store read + insert)
  std::size_t t_stale = 0;      ///< version-mismatch refreshes of an entry
  std::size_t t_evictions = 0;  ///< LRU evictions from the t cache
};

class ServeEngine {
 public:
  /// Serves `model` for the fleet registered in `store`. Both are borrowed
  /// and must outlive the engine; opts are validated here.
  ServeEngine(nn::DualChannelClassifier& model, fl::ClientStore& store,
              ServeOptions opts);

  /// Queue one client's query batch (inputs: [N, ...sample dims], N >= 1)
  /// for the next Flush, copying the rows into the request arena. Every
  /// request must share the sample shape of the first request ever enqueued
  /// (one engine serves one model). Returns the request's row offset: its
  /// logits occupy rows [offset, offset + N) of the tensor Flush returns.
  std::size_t Enqueue(std::size_t client_id, const Tensor& inputs);

  /// Blend and forward every pending request in enqueue order and return
  /// the packed logits [total rows, num_classes]. The reference stays valid
  /// until the next Enqueue/Flush. Flushing with nothing pending yields the
  /// empty [0, num_classes] tensor.
  const Tensor& Flush();

  /// Convenience single-request path: Enqueue + Flush (pending queue must
  /// be empty). Returns the request's logits [N, num_classes].
  const Tensor& Serve(std::size_t client_id, const Tensor& inputs);

  /// Rows currently queued for the next Flush.
  std::size_t pending_rows() const { return total_rows_; }

  /// Logits of the most recent Flush (empty before the first).
  const Tensor& logits() const { return logits_; }

  /// Drop `id`'s cached t, forcing a store re-read on its next query. Needed
  /// for live/borrowed stores, whose objects mutate in place without moving
  /// ClientStore::state_version; cold stores invalidate automatically.
  void InvalidateClient(std::size_t id);

  /// Cumulative serving counters (see ServeStats).
  const ServeStats& stats() const { return stats_; }

  /// The validated engine options.
  const ServeOptions& options() const { return opts_; }

 private:
  struct Request {
    std::size_t client_id;
    std::size_t row_begin;  // offset into the input arena / logits, in rows
    std::size_t rows;
  };
  struct TEntry {
    Tensor t;                  // empty => stateless client, blend B(x, 0)
    std::uint64_t version = 0; // store state_version at load (cold mode)
    std::list<std::size_t>::iterator lru_it;
  };

  const Tensor& LookupT(std::size_t client_id);
  void LoadT(std::size_t client_id, TEntry& e);

  nn::DualChannelClassifier* model_;
  fl::ClientStore* store_;
  ServeOptions opts_;
  ServeStats stats_;

  // Fixed after the first Enqueue: one engine serves one input geometry.
  Shape sample_shape_;        // [C, H, W] (or [D]) of one sample
  std::size_t stride_ = 0;    // floats per sample
  Shape chunk_shape_;         // reusable [rows, ...sample] scratch for Flush

  // Pending requests and their grow-once staging arenas. inputs_ is the
  // flat [rows, stride] request arena; c1_/c2_ are the blended channel
  // chunks fed to the model; logits_ holds the packed results.
  std::vector<Request> requests_;
  std::size_t total_rows_ = 0;
  Tensor inputs_, c1_, c2_, logits_;

  // Per-client t cache: map nodes are stable, so LookupT's returned
  // reference survives unrelated insertions; tlru_ front = most recent.
  std::map<std::size_t, TEntry> tcache_;
  std::list<std::size_t> tlru_;
};

}  // namespace cip::serve
