// Layer-based neural network with explicit backprop.
//
// Modules cache forward activations on a per-module LIFO stack and pop them
// in Backward. This makes a *shared* module reusable several times within one
// step — the dual-channel CIP architecture runs the same backbone on both
// blended channels (forward ch1, forward ch2, backward ch2, backward ch1) and
// gradients from both passes accumulate into the shared parameters, exactly
// matching the paper's weight-sharing claim (Table XI).
//
// Backward always returns the gradient w.r.t. the module input; this is what
// lets CIP's Step I obtain d(loss)/d(perturbation) without a general autograd.
// Its ParamGrads mode says whether it also accumulates parameter gradients:
// Step I holds θ fixed, so it asks for the input gradient alone (kSkip) and
// pays for no weight-gradient GEMM.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace cip::nn {

/// What a Backward call does with parameter gradients. The input gradient it
/// returns is bitwise the same under both modes: parameter gradients never
/// feed it.
enum class ParamGrads {
  kAccumulate,  // add d(loss)/d(param) into every Parameter::grad (training)
  kSkip,        // input gradient only: no Parameter::grad is read or written
};

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Fan-in the He-normal init draws this parameter with (nn/init.h HeInit);
  /// 0 for a parameter that keeps its zero start (biases).
  std::size_t init_fan_in = 0;

  Parameter(std::string n, Tensor v, std::size_t fan_in = 0)
      : name(std::move(n)),
        value(std::move(v)),
        grad(value.shape()),
        init_fan_in(fan_in) {}

  /// Reset the gradient accumulator to zero (value untouched).
  void ZeroGrad() { grad.Zero(); }
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Compute outputs, pushing whatever Backward will need onto this module's
  /// cache stack (only when `train` is true; inference pushes nothing).
  virtual Tensor Forward(const Tensor& x, bool train) = 0;

  /// Pop the most recent forward cache and return the gradient w.r.t. that
  /// forward call's input. Under kAccumulate it also adds this call's
  /// parameter gradients into each Parameter::grad; under kSkip it neither
  /// reads nor writes any Parameter::grad (composites pass the mode down,
  /// layers without parameters ignore it). Overrides repeat the default.
  virtual Tensor Backward(const Tensor& grad_out,
                          ParamGrads mode = ParamGrads::kAccumulate) = 0;

  /// Inference-only forward into a persistent per-module output buffer:
  /// bit-identical to Forward(x, /*train=*/false), but allocation-free at
  /// steady state — the buffer grows once and is reused, and a later batch
  /// that fits the retained capacity triggers no reallocation (Tensor::
  /// Resize). The returned reference stays valid until the next EvalForward
  /// on this module (identity layers may return `x` itself). The base
  /// implementation falls back to Forward(x, false); concrete layers
  /// override it to compute without per-call allocation.
  virtual const Tensor& EvalForward(const Tensor& x) {
    eval_out_ = Forward(x, /*train=*/false);
    return eval_out_;
  }

  /// Append this module's parameters (deterministic order).
  virtual void CollectParameters(std::vector<Parameter*>& out) { (void)out; }

  /// Stable human-readable identifier used in parameter names and logs.
  virtual std::string Name() const = 0;

  /// Drop any pending forward caches (e.g. after an exception or when a
  /// forward pass is not followed by backward).
  virtual void ClearCache() {}

  /// All parameters of this module (and children), in deterministic order.
  std::vector<Parameter*> Parameters() {
    std::vector<Parameter*> out;
    CollectParameters(out);
    return out;
  }

  /// Total number of trainable scalars across all parameters.
  std::size_t ParameterCount() {
    std::size_t n = 0;
    for (const Parameter* p : Parameters()) n += p->value.size();
    return n;
  }

  /// Zero every parameter's gradient accumulator.
  void ZeroGrad() {
    for (Parameter* p : Parameters()) p->ZeroGrad();
  }

 protected:
  // Persistent EvalForward output buffer (grow-once, reused across calls).
  Tensor eval_out_;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace cip::nn
