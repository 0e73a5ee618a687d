// Composite modules: Sequential chain, residual and dense (concat) blocks.
#pragma once

#include <memory>
#include <stack>
#include <vector>

#include "nn/module.h"

namespace cip::nn {

/// Runs children in order; backward in reverse order.
class Sequential : public Module {
 public:
  explicit Sequential(std::string name = "seq") : name_(std::move(name)) {}

  /// Builder-style append. Returns *this for chaining.
  Sequential& Add(ModulePtr m) {
    CIP_CHECK(m != nullptr);
    children_.push_back(std::move(m));
    return *this;
  }

  Tensor Forward(const Tensor& x, bool train) override;
  /// Children's Backward in reverse order, each given `mode`.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

  /// Number of child modules added so far.
  std::size_t ChildCount() const { return children_.size(); }

 private:
  std::string name_;
  std::vector<ModulePtr> children_;
};

/// y = inner(x) + x  (identity shortcut; inner must preserve shape).
class Residual : public Module {
 public:
  explicit Residual(ModulePtr inner, std::string name = "residual")
      : name_(std::move(name)), inner_(std::move(inner)) {
    CIP_CHECK(inner_ != nullptr);
  }

  Tensor Forward(const Tensor& x, bool train) override;
  /// inner's Backward (given `mode`) plus the shortcut gradient.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  std::string name_;
  ModulePtr inner_;
};

/// y = concat_channels(x, inner(x)) — the DenseNet connectivity pattern.
/// Input and inner output must be [N, C, H, W] with identical N/H/W.
class DenseConcat : public Module {
 public:
  explicit DenseConcat(ModulePtr inner, std::string name = "dense")
      : name_(std::move(name)), inner_(std::move(inner)) {
    CIP_CHECK(inner_ != nullptr);
  }

  Tensor Forward(const Tensor& x, bool train) override;
  /// Splits grad_out by channel; inner's share goes through inner (`mode`).
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  void CollectParameters(std::vector<Parameter*>& out) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  std::string name_;
  ModulePtr inner_;
  std::stack<std::pair<std::size_t, std::size_t>> cached_channels_;  // (c_x, c_inner)
};

}  // namespace cip::nn
