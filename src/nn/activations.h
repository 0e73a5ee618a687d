// Activation layers.
#pragma once

#include <stack>

#include "common/rng.h"
#include "nn/module.h"

namespace cip::nn {

class ReLU : public Module {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}

  Tensor Forward(const Tensor& x, bool train) override;
  /// Input gradient only: no parameters, so `mode` changes nothing.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  std::string name_;
  std::stack<Tensor> cached_masks_;
};

/// Inverted dropout; identity at inference.
class Dropout : public Module {
 public:
  Dropout(float rate, Rng& rng, std::string name = "dropout");

  Tensor Forward(const Tensor& x, bool train) override;
  /// Input gradient only: no parameters, so `mode` changes nothing.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override { return x; }
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  float rate_;
  Rng rng_;
  std::string name_;
  std::stack<Tensor> cached_masks_;
};

}  // namespace cip::nn
