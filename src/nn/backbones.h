// Backbone factories.
//
// The paper evaluates ResNet-50, DenseNet and VGG backbones plus an MLP for
// Purchase-50. At laptop scale we reproduce the *connectivity families*
// (residual addition, dense concatenation, plain convolution stacks, dense
// MLP) with the same GAP + FC head structure; capacity is set by `width`.
// See DESIGN.md §2 for the substitution rationale.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "nn/classifier.h"
#include "nn/dual_channel.h"
#include "nn/module.h"

namespace cip::nn {

enum class Arch { kResNet, kDenseNet, kVGG, kMLP };

/// Short lowercase name for an architecture family ("resnet", "vgg", ...).
std::string ArchName(Arch arch);

/// Declarative model description. Clients and server construct identical
/// models from the same spec (same seed => identical initialization).
struct ModelSpec {
  Arch arch = Arch::kResNet;
  Shape input_shape;            ///< per-sample shape: {C, H, W} or {D}
  std::size_t num_classes = 10;
  std::size_t width = 12;       ///< base channel width / hidden-layer scale
  std::uint64_t seed = 1;       ///< weight-init seed
};

struct Backbone {
  ModulePtr module;
  std::size_t feature_dim;  ///< channels (or vector width) of the output
};

/// Build the backbone only (no head), parameters zeroed (nn/init.h HeInit
/// draws them). Image archs require H and W divisible by 4 (two pooling
/// stages).
Backbone MakeBackbone(const ModelSpec& spec);

/// Legacy single-channel model: backbone + GAP + FC, He-initialized from
/// spec.seed.
std::unique_ptr<Classifier> MakeClassifier(const ModelSpec& spec);

/// CIP dual-channel model sharing one backbone (Fig. 3), He-initialized from
/// spec.seed.
std::unique_ptr<DualChannelClassifier> MakeDualChannelClassifier(
    const ModelSpec& spec);

/// MakeClassifier with the init draw deferred to the model's first use, for
/// an owner that installs a broadcast global first (a federated client): its
/// SetGlobal overwrites every parameter through ParametersForOverwrite, and
/// the init is never drawn. Any other first use draws exactly what
/// MakeClassifier draws.
std::unique_ptr<Classifier> MakeClassifierDeferred(const ModelSpec& spec);

/// MakeDualChannelClassifier with the init draw deferred, as
/// MakeClassifierDeferred.
std::unique_ptr<DualChannelClassifier> MakeDualChannelClassifierDeferred(
    const ModelSpec& spec);

}  // namespace cip::nn
