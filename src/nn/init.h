// Weight initialization.
//
// Layers allocate their parameters zeroed and record each weight's He fan-in
// (Parameter::init_fan_in); one pass, HeInit, then draws every weight from
// one Rng in parameter order. Parameter order is construction order, so the
// pass draws exactly what per-layer eager draws in the constructors would.
//
// A model that is about to receive the server's global (a federated client)
// need not draw at all: DeferredInit holds the pass until the model's first
// use and drops it when every parameter is overwritten first
// (nn::Classifier::ParametersForOverwrite).
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "nn/module.h"

namespace cip::nn {

/// He-normal init, N(0, sqrt(2 / init_fan_in)), drawn from `rng` into every
/// parameter with init_fan_in > 0, in order; the others are left as they are.
void HeInit(std::span<Parameter* const> params, Rng& rng);

/// A model's HeInit pass held until it is needed: Draw runs it once, from
/// Rng(seed), unless Drop came first.
class DeferredInit {
 public:
  explicit DeferredInit(std::uint64_t seed) : seed_(seed) {}

  /// True until Draw or Drop.
  bool pending() const { return pending_; }
  /// Run the pass over the model's full parameter list if still pending.
  void Draw(std::span<Parameter* const> params);
  /// Every parameter is about to be overwritten: never draw.
  void Drop() { pending_ = false; }

 private:
  std::uint64_t seed_;
  bool pending_ = true;
};

namespace internal {

/// Process-wide count of weights HeInit has drawn (one per element).
/// Monotonic; tests snapshot it around a region and assert the delta.
/// Thread-safe.
std::uint64_t InitDrawCount();

}  // namespace internal

}  // namespace cip::nn
