#include "serve/serve_engine.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace cip::serve {

void ServeOptions::Validate() const {
  CIP_CHECK_MSG(max_batch_rows >= 1, "serve: max_batch_rows must be >= 1");
  CIP_CHECK_MSG(t_cache_entries >= 1, "serve: t_cache_entries must be >= 1");
  CIP_CHECK_MSG(blend.alpha >= 0.0f && blend.alpha < 1.0f,
                "serve: blend.alpha " << blend.alpha << " outside [0, 1)");
  CIP_CHECK_MSG(blend.clip_lo < blend.clip_hi,
                "serve: blend clip range [" << blend.clip_lo << ", "
                                            << blend.clip_hi << ") is empty");
}

ServeEngine::ServeEngine(nn::DualChannelClassifier& model,
                         fl::ClientStore& store, ServeOptions opts)
    : model_(&model), store_(&store), opts_(std::move(opts)) {
  opts_.Validate();
}

// CIP_HOT  (serve dispatch: request admission into the grow-once arena)
std::size_t ServeEngine::Enqueue(std::size_t client_id, const Tensor& inputs) {
  CIP_CHECK_LT(client_id, store_->num_clients());
  CIP_CHECK_GE(inputs.rank(), 2u);
  const std::size_t n = inputs.dim(0);
  CIP_CHECK_GE(n, 1u);
  if (stride_ == 0) {
    // First request ever: pin the engine's sample geometry.
    sample_shape_.assign(inputs.shape().begin() + 1,  // CIP_ANALYZE_OK(hot-alloc-container): one-time geometry pin, never re-runs after the first request
                         inputs.shape().end());
    stride_ = inputs.size() / n;
    CIP_CHECK_GE(stride_, 1u);
  } else {
    CIP_CHECK_MSG(inputs.rank() == sample_shape_.size() + 1,
                  "serve: request rank " << inputs.rank()
                                         << " != pinned rank "
                                         << sample_shape_.size() + 1);
    for (std::size_t d = 0; d < sample_shape_.size(); ++d) {
      CIP_CHECK_MSG(inputs.dim(d + 1) == sample_shape_[d],
                    "serve: request sample dim " << d << " = "
                                                 << inputs.dim(d + 1)
                                                 << " != pinned "
                                                 << sample_shape_[d]);
    }
  }
  const std::size_t row_begin = total_rows_;
  total_rows_ += n;
  inputs_.Resize({total_rows_, stride_});  // prefix-preserving arena growth
  std::copy(inputs.data(), inputs.data() + n * stride_,
            inputs_.data() + row_begin * stride_);
  requests_.push_back({client_id, row_begin, n});  // CIP_ANALYZE_OK(hot-alloc-container): grow-once request list; capacity plateaus at the steady-state batch size
  ++stats_.queries;
  return row_begin;
}

// CIP_HOT  (serve dispatch: fused blend+forward over the pending requests)
const Tensor& ServeEngine::Flush() {
  const std::size_t classes = model_->num_classes();
  logits_.Resize({total_rows_, classes});
  float* plog = logits_.data();
  const Tensor& arena = inputs_;  // const view: data() skips the version bump
  std::size_t i = 0;
  while (i < requests_.size()) {
    // Greedy whole-request packing: take requests until the next one would
    // push the chunk past max_batch_rows (an oversized single request still
    // forms its own chunk — requests are never split across forwards).
    std::size_t j = i;
    std::size_t rows = 0;
    while (j < requests_.size() &&
           (j == i || rows + requests_[j].rows <= opts_.max_batch_rows)) {
      rows += requests_[j].rows;
      ++j;
    }
    chunk_shape_.assign(1, rows);  // CIP_ANALYZE_OK(hot-alloc-container): small-vector shape scratch; capacity sticks after the first flush
    chunk_shape_.insert(chunk_shape_.end(), sample_shape_.begin(),
                        sample_shape_.end());
    c1_.Resize(chunk_shape_);
    c2_.Resize(chunk_shape_);
    float* p1 = c1_.data();
    float* p2 = c2_.data();
    std::size_t off = 0;
    for (std::size_t r = i; r < j; ++r) {
      const Request& req = requests_[r];
      const Tensor& t = LookupT(req.client_id);
      if (t.size() > 0) {
        CIP_CHECK_MSG(t.size() == stride_,
                      "serve: client " << req.client_id << " perturbation size "
                                       << t.size() << " != sample size "
                                       << stride_);
      }
      core::BlendRowsInto(arena.data() + req.row_begin * stride_,
                          t.size() > 0 ? t.data() : nullptr, req.rows, stride_,
                          opts_.blend, p1 + off * stride_, p2 + off * stride_);
      off += req.rows;
    }
    const Tensor& chunk_logits = model_->EvalForward(c1_, c2_);
    std::copy(chunk_logits.data(), chunk_logits.data() + rows * classes,
              plog + requests_[i].row_begin * classes);
    ++stats_.batches;
    i = j;
  }
  stats_.rows += total_rows_;
  requests_.clear();
  total_rows_ = 0;
  return logits_;
}

const Tensor& ServeEngine::Serve(std::size_t client_id, const Tensor& inputs) {
  CIP_CHECK_MSG(requests_.empty(),
                "serve: Serve() requires an empty pending queue ("
                    << requests_.size() << " requests pending)");
  Enqueue(client_id, inputs);
  return Flush();
}

void ServeEngine::InvalidateClient(std::size_t id) {
  auto it = tcache_.find(id);
  if (it == tcache_.end()) return;
  tlru_.erase(it->second.lru_it);
  tcache_.erase(it);
}

// CIP_HOT  (serve t lookup: steady state is a pure map hit + LRU splice)
const Tensor& ServeEngine::LookupT(std::size_t client_id) {
  auto it = tcache_.find(client_id);
  if (it != tcache_.end()) {
    TEntry& e = it->second;
    if (store_->cold() && store_->state_version(client_id) != e.version) {
      // The stored record changed under us (checked in after training,
      // restored, or checked out) — re-read once.
      ++stats_.t_stale;
      LoadT(client_id, e);
      e.version = store_->state_version(client_id);
    } else {
      ++stats_.t_hits;
    }
    tlru_.splice(tlru_.begin(), tlru_, e.lru_it);  // recency bump, no alloc
    return e.t;
  }
  ++stats_.t_misses;
  TEntry& e = tcache_[client_id];  // CIP_ANALYZE_OK(hot-alloc-container): miss path — node insert is the cache fill itself, not steady-state traffic
  tlru_.push_front(client_id);     // CIP_ANALYZE_OK(hot-alloc-container): miss path, paired with the cache fill above
  e.lru_it = tlru_.begin();
  LoadT(client_id, e);
  e.version = store_->cold() ? store_->state_version(client_id) : 0;
  while (tcache_.size() > opts_.t_cache_entries) {
    const std::size_t victim = tlru_.back();
    tlru_.pop_back();
    tcache_.erase(victim);  // map nodes are stable: e survives unless it IS
                            // the victim, impossible while e sits at the
                            // LRU front and size > capacity >= 1.
    ++stats_.t_evictions;
  }
  return e.t;
}

void ServeEngine::LoadT(std::size_t client_id, TEntry& e) {
  fl::ClientState st;
  if (store_->PeekState(client_id, st)) {
    // PR 4 ExportState contract: the secret perturbation t is tensors[0].
    e.t = std::move(st.tensors.front());
    return;
  }
  // No stored state: either the client never participated (cold mode) or it
  // is stateless. A record-less cold Materialize leaves the store unchanged
  // (the factory is pure per id), so this is a safe ephemeral construction
  // for the client's initial t; the client's model init is never drawn.
  fl::ClientStore::Handle h = store_->Materialize(client_id);
  st = h->ExportState();
  if (!st.tensors.empty()) {
    e.t = std::move(st.tensors.front());
  } else {
    e.t = Tensor();  // stateless client: serve B(x, 0)  CIP_ANALYZE_OK(hot-alloc-tensor): cold-miss admission only; a warm t-cache never reaches LoadT (pinned by test_alloc_free)
  }
}

}  // namespace cip::serve
