// Single-channel classifier: backbone → global average pool → FC head.
// This is the "legacy model" of the paper (no defense): the same backbones
// the dual-channel CIP model uses, with a normal-width head.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/init.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pooling.h"

namespace cip::nn {

class Classifier {
 public:
  /// `feature_dim` is the channel (or vector) width of the backbone output.
  /// Every parameter starts zeroed (the backbone's too) and the He init is
  /// drawn from Rng(init_seed) over Parameters() at the model's first use:
  /// Forward, EvalForward or Parameters. ParametersForOverwrite drops it
  /// instead (nn/init.h DeferredInit).
  Classifier(ModulePtr backbone, std::size_t feature_dim,
             std::size_t num_classes, std::uint64_t init_seed);

  /// Logits for a batch. `train` caches activations for Backward.
  Tensor Forward(const Tensor& x, bool train);

  /// Inference-only logits, bit-identical to Forward(x, false) but
  /// allocation-free at steady state (every layer computes into persistent
  /// scratch, Module::EvalForward). The returned reference is valid until
  /// the next forward through this model.
  const Tensor& EvalForward(const Tensor& x);

  /// Backprop from dL/dlogits; accumulates parameter grads, returns dL/dx.
  Tensor Backward(const Tensor& dlogits);

  /// All trainable parameters (backbone then head), deterministic order.
  /// Draws the deferred init first if it is still pending.
  std::vector<Parameter*> Parameters();
  /// The same parameters for a caller that overwrites every value before any
  /// other use (a client's SetGlobal): the deferred init is never drawn.
  std::vector<Parameter*> ParametersForOverwrite();
  /// Total number of trainable scalars.
  std::size_t ParameterCount();
  /// Zero every parameter's gradient accumulator.
  void ZeroGrad();
  /// Drop pending forward caches (forward passes not followed by backward).
  void ClearCache();

  /// Number of output classes (logit width).
  std::size_t num_classes() const { return num_classes_; }
  /// Channel (or vector) width of the backbone output fed to the head.
  std::size_t feature_dim() const { return feature_dim_; }

 private:
  std::vector<Parameter*> AllParameters();
  void DrawPendingInit();

  ModulePtr backbone_;
  GlobalAvgPool gap_;
  std::size_t feature_dim_;
  std::size_t num_classes_;
  Linear head_;
  DeferredInit init_;
};

}  // namespace cip::nn
