// Pooling layers.
#pragma once

#include <stack>

#include "nn/module.h"

namespace cip::nn {

/// Non-overlapping average pooling with a square window over [N, C, H, W].
/// H and W must be divisible by the window.
class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(std::size_t window, std::string name = "avgpool");

  Tensor Forward(const Tensor& x, bool train) override;
  /// Input gradient only: no parameters, so `mode` changes nothing.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  std::size_t window_;
  std::string name_;
  std::stack<Shape> cached_shapes_;
};

/// Non-overlapping max pooling with a square window over [N, C, H, W].
class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::size_t window, std::string name = "maxpool");

  Tensor Forward(const Tensor& x, bool train) override;
  /// Input gradient only: no parameters, so `mode` changes nothing.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  struct Cache {
    Shape in_shape;
    std::vector<std::size_t> argmax;  // flat input index per output element
  };
  std::size_t window_;
  std::string name_;
  std::stack<Cache> cache_;
};

/// Flattens [N, ...] to [N, D]. Identity for rank-2 input.
class Flatten : public Module {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}

  Tensor Forward(const Tensor& x, bool train) override;
  /// Input gradient only: no parameters, so `mode` changes nothing.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  std::string name_;
  std::stack<Shape> cached_shapes_;
};

/// Global average pooling. Maps [N, C, H, W] -> [N, C]; passes [N, D]
/// through unchanged so vector backbones (MLPs) compose with the same heads
/// as convolutional ones.
class GlobalAvgPool : public Module {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : name_(std::move(name)) {}

  Tensor Forward(const Tensor& x, bool train) override;
  /// Input gradient only: no parameters, so `mode` changes nothing.
  Tensor Backward(const Tensor& grad_out,
                  ParamGrads mode = ParamGrads::kAccumulate) override;
  const Tensor& EvalForward(const Tensor& x) override;
  std::string Name() const override { return name_; }
  void ClearCache() override;

 private:
  std::string name_;
  std::stack<Shape> cached_shapes_;
};

}  // namespace cip::nn
