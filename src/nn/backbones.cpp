#include "nn/backbones.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace cip::nn {

namespace {

ModulePtr Conv3x3(std::size_t ic, std::size_t oc, const std::string& name) {
  return std::make_unique<Conv2d>(ic, oc, /*kernel=*/3, /*stride=*/1,
                                  /*padding=*/1, name);
}

ModulePtr Conv1x1(std::size_t ic, std::size_t oc, const std::string& name) {
  return std::make_unique<Conv2d>(ic, oc, /*kernel=*/1, /*stride=*/1,
                                  /*padding=*/0, name);
}

void CheckImageSpec(const ModelSpec& spec) {
  CIP_CHECK_MSG(spec.input_shape.size() == 3,
                "image archs need {C,H,W}, got "
                    << ShapeToString(spec.input_shape));
  CIP_CHECK_EQ(spec.input_shape[1] % 4, 0u);
  CIP_CHECK_EQ(spec.input_shape[2] % 4, 0u);
}

Backbone MakeVgg(const ModelSpec& spec) {
  CheckImageSpec(spec);
  const std::size_t c = spec.input_shape[0], w = spec.width;
  auto seq = std::make_unique<Sequential>("vgg");
  seq->Add(Conv3x3(c, w, "vgg.c1"))
      .Add(std::make_unique<ReLU>())
      .Add(Conv3x3(w, w, "vgg.c2"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2, "vgg.p1"))
      .Add(Conv3x3(w, 2 * w, "vgg.c3"))
      .Add(std::make_unique<ReLU>())
      .Add(Conv3x3(2 * w, 2 * w, "vgg.c4"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2, "vgg.p2"));
  return {std::move(seq), 2 * w};
}

ModulePtr ResidualBlock(std::size_t ch, const std::string& name) {
  auto inner = std::make_unique<Sequential>(name + ".inner");
  inner->Add(Conv3x3(ch, ch, name + ".c1"))
      .Add(std::make_unique<ReLU>())
      .Add(Conv3x3(ch, ch, name + ".c2"));
  return std::make_unique<Residual>(std::move(inner), name);
}

Backbone MakeResNet(const ModelSpec& spec) {
  CheckImageSpec(spec);
  const std::size_t c = spec.input_shape[0], w = spec.width;
  auto seq = std::make_unique<Sequential>("resnet");
  seq->Add(Conv3x3(c, w, "res.stem"))
      .Add(std::make_unique<ReLU>())
      .Add(ResidualBlock(w, "res.b1"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2, "res.p1"))
      .Add(Conv3x3(w, 2 * w, "res.widen"))
      .Add(std::make_unique<ReLU>())
      .Add(ResidualBlock(2 * w, "res.b2"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2, "res.p2"));
  return {std::move(seq), 2 * w};
}

ModulePtr DenseLayer(std::size_t ic, std::size_t growth,
                     const std::string& name) {
  auto inner = std::make_unique<Sequential>(name + ".inner");
  inner->Add(Conv3x3(ic, growth, name + ".c"))
      .Add(std::make_unique<ReLU>());
  return std::make_unique<DenseConcat>(std::move(inner), name);
}

Backbone MakeDenseNet(const ModelSpec& spec) {
  CheckImageSpec(spec);
  const std::size_t c = spec.input_shape[0], w = spec.width;
  const std::size_t g = std::max<std::size_t>(w / 2, 2);
  auto seq = std::make_unique<Sequential>("densenet");
  seq->Add(Conv3x3(c, w, "dense.stem"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2, "dense.p1"))
      .Add(DenseLayer(w, g, "dense.d1"))        // w + g channels
      .Add(DenseLayer(w + g, g, "dense.d2"))    // w + 2g channels
      .Add(Conv1x1(w + 2 * g, 2 * w, "dense.trans"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<MaxPool2d>(2, "dense.p2"));
  return {std::move(seq), 2 * w};
}

Backbone MakeMlp(const ModelSpec& spec) {
  CIP_CHECK_MSG(spec.input_shape.size() == 1,
                "MLP arch needs a flat {D} input shape");
  const std::size_t d = spec.input_shape[0], w = spec.width;
  // The paper's Purchase-50 MLP has dense layers 512/256/128; we keep the
  // same 4:2:1 pyramid parameterized by `width` (feature dim = 2*width so the
  // dual-channel head width matches the conv backbones' convention).
  auto seq = std::make_unique<Sequential>("mlp");
  seq->Add(std::make_unique<Linear>(d, 8 * w, "mlp.l1"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Linear>(8 * w, 4 * w, "mlp.l2"))
      .Add(std::make_unique<ReLU>())
      .Add(std::make_unique<Linear>(4 * w, 2 * w, "mlp.l3"))
      .Add(std::make_unique<ReLU>());
  return {std::move(seq), 2 * w};
}

}  // namespace

std::string ArchName(Arch arch) {
  switch (arch) {
    case Arch::kResNet: return "ResNet";
    case Arch::kDenseNet: return "DenseNet";
    case Arch::kVGG: return "VGG";
    case Arch::kMLP: return "MLP";
  }
  return "unknown";
}

Backbone MakeBackbone(const ModelSpec& spec) {
  CIP_CHECK_GT(spec.width, 0u);
  switch (spec.arch) {
    case Arch::kResNet: return MakeResNet(spec);
    case Arch::kDenseNet: return MakeDenseNet(spec);
    case Arch::kVGG: return MakeVgg(spec);
    case Arch::kMLP: return MakeMlp(spec);
  }
  throw CheckError("unknown arch");
}

std::unique_ptr<Classifier> MakeClassifierDeferred(const ModelSpec& spec) {
  Backbone b = MakeBackbone(spec);
  return std::make_unique<Classifier>(std::move(b.module), b.feature_dim,
                                      spec.num_classes, spec.seed);
}

std::unique_ptr<Classifier> MakeClassifier(const ModelSpec& spec) {
  auto model = MakeClassifierDeferred(spec);
  model->Parameters();  // draws the init now
  return model;
}

std::unique_ptr<DualChannelClassifier> MakeDualChannelClassifierDeferred(
    const ModelSpec& spec) {
  Backbone b = MakeBackbone(spec);
  return std::make_unique<DualChannelClassifier>(
      std::move(b.module), b.feature_dim, spec.num_classes, spec.seed);
}

std::unique_ptr<DualChannelClassifier> MakeDualChannelClassifier(
    const ModelSpec& spec) {
  auto model = MakeDualChannelClassifierDeferred(spec);
  model->Parameters();  // draws the init now
  return model;
}

}  // namespace cip::nn
