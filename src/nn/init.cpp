#include "nn/init.h"

#include <atomic>
#include <cmath>

namespace cip::nn {

namespace {
std::atomic<std::uint64_t> g_init_draws{0};
}  // namespace

void HeInit(std::span<Parameter* const> params, Rng& rng) {
  for (Parameter* p : params) {
    if (p->init_fan_in == 0) continue;
    const float stddev = std::sqrt(2.0f / static_cast<float>(p->init_fan_in));
    for (float& x : p->value.flat()) x = rng.Normal(0.0f, stddev);
    g_init_draws.fetch_add(p->value.size(), std::memory_order_relaxed);
  }
}

void DeferredInit::Draw(std::span<Parameter* const> params) {
  if (!pending_) return;
  pending_ = false;
  Rng rng(seed_);
  HeInit(params, rng);
}

namespace internal {

std::uint64_t InitDrawCount() {
  return g_init_draws.load(std::memory_order_relaxed);
}

}  // namespace internal

}  // namespace cip::nn
