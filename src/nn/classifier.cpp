#include "nn/classifier.h"

namespace cip::nn {

Classifier::Classifier(ModulePtr backbone, std::size_t feature_dim,
                       std::size_t num_classes, std::uint64_t init_seed)
    : backbone_(std::move(backbone)),
      feature_dim_(feature_dim),
      num_classes_(num_classes),
      head_(feature_dim, num_classes, "head"),
      init_(init_seed) {
  CIP_CHECK(backbone_ != nullptr);
  CIP_CHECK_GT(num_classes_, 1u);
}

Tensor Classifier::Forward(const Tensor& x, bool train) {
  DrawPendingInit();
  Tensor h = backbone_->Forward(x, train);
  h = gap_.Forward(h, train);
  CIP_CHECK_EQ(h.dim(1), feature_dim_);
  return head_.Forward(h, train);
}

// CIP_HOT  (serve-path single-channel forward: zero steady-state allocs)
const Tensor& Classifier::EvalForward(const Tensor& x) {
  DrawPendingInit();
  const Tensor& h = gap_.EvalForward(backbone_->EvalForward(x));
  CIP_CHECK_EQ(h.dim(1), feature_dim_);
  return head_.EvalForward(h);
}

Tensor Classifier::Backward(const Tensor& dlogits) {
  Tensor g = head_.Backward(dlogits);
  g = gap_.Backward(g);
  return backbone_->Backward(g);
}

std::vector<Parameter*> Classifier::AllParameters() {
  std::vector<Parameter*> out;
  backbone_->CollectParameters(out);
  head_.CollectParameters(out);
  return out;
}

void Classifier::DrawPendingInit() {
  if (init_.pending()) init_.Draw(AllParameters());
}

std::vector<Parameter*> Classifier::Parameters() {
  std::vector<Parameter*> out = AllParameters();
  init_.Draw(out);
  return out;
}

std::vector<Parameter*> Classifier::ParametersForOverwrite() {
  init_.Drop();
  return AllParameters();
}

std::size_t Classifier::ParameterCount() {
  std::size_t n = 0;
  for (const Parameter* p : AllParameters()) n += p->value.size();
  return n;
}

void Classifier::ZeroGrad() {
  for (Parameter* p : AllParameters()) p->ZeroGrad();
}

void Classifier::ClearCache() {
  backbone_->ClearCache();
  gap_.ClearCache();
  head_.ClearCache();
}

}  // namespace cip::nn
