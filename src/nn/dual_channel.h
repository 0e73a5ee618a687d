// The paper's dual-channel architecture (Fig. 3).
//
// Both components of a blended input B(x, t) = ((1-α)x + αt, (1+α)x − αt) go
// through ONE shared backbone, then global average pooling; the two pooled
// feature vectors are concatenated and classified by a fully connected head.
// Sharing the backbone is what keeps the parameter overhead at ~+0.9%
// (Table XI): only the head doubles its input width.
//
// Implementation note: the backbone's LIFO cache stacks let us run
// forward(ch1), forward(ch2), then backward(ch2), backward(ch1); parameter
// gradients from both channels accumulate before the optimizer step.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "nn/init.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pooling.h"

namespace cip::nn {

class DualChannelClassifier {
 public:
  /// Every parameter starts zeroed (the backbone's too) and the He init is
  /// drawn from Rng(init_seed) over Parameters() at the model's first use:
  /// Forward, EvalForward or Parameters. ParametersForOverwrite drops it
  /// instead (nn/init.h DeferredInit).
  DualChannelClassifier(ModulePtr backbone, std::size_t feature_dim,
                        std::size_t num_classes, std::uint64_t init_seed);

  /// Logits for a batch of blended pairs (x1 = (1-α)x+αt, x2 = (1+α)x−αt).
  Tensor Forward(const Tensor& x1, const Tensor& x2, bool train);

  /// Inference-only logits, bit-identical to Forward(x1, x2, false) but
  /// allocation-free at steady state: every layer computes into persistent
  /// scratch (Module::EvalForward) and the channel-1 features are copied
  /// aside before the shared backbone reruns on channel 2. The returned
  /// reference is valid until the next forward through this model.
  const Tensor& EvalForward(const Tensor& x1, const Tensor& x2);

  /// Backprop from dL/dlogits; returns (dL/dx1, dL/dx2). `mode` reaches
  /// every layer (Module::Backward): kSkip leaves every Parameter::grad
  /// untouched and returns the same bytes as kAccumulate.
  std::pair<Tensor, Tensor> Backward(
      const Tensor& dlogits, ParamGrads mode = ParamGrads::kAccumulate);

  /// All trainable parameters (shared backbone then head), deterministic order.
  /// Draws the deferred init first if it is still pending.
  std::vector<Parameter*> Parameters();
  /// The same parameters for a caller that overwrites every value before any
  /// other use (a client's SetGlobal): the deferred init is never drawn.
  std::vector<Parameter*> ParametersForOverwrite();
  /// Total number of trainable scalars (backbone counted once).
  std::size_t ParameterCount();
  /// Zero every parameter's gradient accumulator.
  void ZeroGrad();
  /// Drop pending forward caches from both channels.
  void ClearCache();

  /// Number of output classes (logit width).
  std::size_t num_classes() const { return num_classes_; }
  /// Per-channel backbone output width; the head sees 2x this after concat.
  std::size_t feature_dim() const { return feature_dim_; }

 private:
  std::vector<Parameter*> AllParameters();
  void DrawPendingInit();

  ModulePtr backbone_;
  GlobalAvgPool gap_;
  std::size_t feature_dim_;
  std::size_t num_classes_;
  Linear head_;  // input width 2 * feature_dim
  DeferredInit init_;

  // Concat/split staging, reused across steps (reallocated only on
  // batch-shape change): concat_ [N, 2D] feeds the head; ga_/gb_ [N, D] are
  // the per-channel halves of the head's input gradient; eval_f1_ [N, D]
  // holds channel-1 pooled features across the shared backbone's channel-2
  // rerun in EvalForward.
  Tensor concat_, ga_, gb_, eval_f1_;
};

}  // namespace cip::nn
