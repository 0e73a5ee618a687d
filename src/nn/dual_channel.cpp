#include "nn/dual_channel.h"

#include "tensor/ops.h"

namespace cip::nn {

namespace {

/// Concat two [N, D] matrices along dim 1 into caller-owned scratch.
void ConcatColsInto(const Tensor& a, const Tensor& b, Tensor& out) {
  CIP_CHECK_EQ(a.rank(), 2u);
  CIP_CHECK_EQ(b.rank(), 2u);
  CIP_CHECK_EQ(a.dim(0), b.dim(0));
  const std::size_t n = a.dim(0), da = a.dim(1), db = b.dim(1);
  CIP_DCHECK_EQ(a.size(), n * da);
  CIP_DCHECK_EQ(b.size(), n * db);
  EnsureShape(out, {n, da + db});
  float* po = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(a.data() + i * da, a.data() + (i + 1) * da, po + i * (da + db));
    std::copy(b.data() + i * db, b.data() + (i + 1) * db,
              po + i * (da + db) + da);
  }
}

/// Split the column-concat gradient back into caller-owned halves.
void SplitColsInto(const Tensor& g, std::size_t da, Tensor& ga, Tensor& gb) {
  CIP_CHECK_EQ(g.rank(), 2u);
  CIP_CHECK_GT(g.dim(1), da);
  const std::size_t n = g.dim(0), db = g.dim(1) - da;
  EnsureShape(ga, {n, da});
  EnsureShape(gb, {n, db});
  float* pa = ga.data();
  float* pb = gb.data();
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(g.data() + i * (da + db), g.data() + i * (da + db) + da,
              pa + i * da);
    std::copy(g.data() + i * (da + db) + da, g.data() + (i + 1) * (da + db),
              pb + i * db);
  }
}

}  // namespace

DualChannelClassifier::DualChannelClassifier(ModulePtr backbone,
                                             std::size_t feature_dim,
                                             std::size_t num_classes,
                                             std::uint64_t init_seed)
    : backbone_(std::move(backbone)),
      feature_dim_(feature_dim),
      num_classes_(num_classes),
      head_(2 * feature_dim, num_classes, "dual_head"),
      init_(init_seed) {
  CIP_CHECK(backbone_ != nullptr);
  CIP_CHECK_GT(num_classes_, 1u);
}

Tensor DualChannelClassifier::Forward(const Tensor& x1, const Tensor& x2,
                                      bool train) {
  DrawPendingInit();
  CIP_CHECK(x1.SameShape(x2));
  // LIFO order: channel-1 caches below channel-2 caches.
  Tensor f1 = gap_.Forward(backbone_->Forward(x1, train), train);
  Tensor f2 = gap_.Forward(backbone_->Forward(x2, train), train);
  CIP_CHECK_EQ(f1.dim(1), feature_dim_);
  CIP_DCHECK(f1.SameShape(f2));
  ConcatColsInto(f1, f2, concat_);
  return head_.Forward(concat_, train);
}

// CIP_HOT  (serve-path fused dual-channel forward: zero steady-state allocs)
const Tensor& DualChannelClassifier::EvalForward(const Tensor& x1,
                                                 const Tensor& x2) {
  DrawPendingInit();
  CIP_CHECK(x1.SameShape(x2));
  // The backbone and gap are SHARED between channels: running channel 2
  // overwrites the scratch the channel-1 reference points into, so the
  // channel-1 features are copy-assigned aside first (capacity-reusing).
  eval_f1_ = gap_.EvalForward(backbone_->EvalForward(x1));
  const Tensor& f2 = gap_.EvalForward(backbone_->EvalForward(x2));
  CIP_CHECK_EQ(eval_f1_.dim(1), feature_dim_);
  CIP_DCHECK(eval_f1_.SameShape(f2));
  ConcatColsInto(eval_f1_, f2, concat_);
  return head_.EvalForward(concat_);
}

std::pair<Tensor, Tensor> DualChannelClassifier::Backward(
    const Tensor& dlogits, ParamGrads mode) {
  Tensor dconcat = head_.Backward(dlogits, mode);
  CIP_DCHECK_EQ(dconcat.dim(1), 2 * feature_dim_);
  SplitColsInto(dconcat, feature_dim_, ga_, gb_);
  // Pop channel-2 caches first, then channel-1.
  Tensor dx2 = backbone_->Backward(gap_.Backward(gb_), mode);
  Tensor dx1 = backbone_->Backward(gap_.Backward(ga_), mode);
  return {std::move(dx1), std::move(dx2)};
}

std::vector<Parameter*> DualChannelClassifier::AllParameters() {
  std::vector<Parameter*> out;
  backbone_->CollectParameters(out);
  head_.CollectParameters(out);
  return out;
}

void DualChannelClassifier::DrawPendingInit() {
  if (init_.pending()) init_.Draw(AllParameters());
}

std::vector<Parameter*> DualChannelClassifier::Parameters() {
  std::vector<Parameter*> out = AllParameters();
  init_.Draw(out);
  return out;
}

std::vector<Parameter*> DualChannelClassifier::ParametersForOverwrite() {
  init_.Drop();
  return AllParameters();
}

std::size_t DualChannelClassifier::ParameterCount() {
  std::size_t n = 0;
  for (const Parameter* p : AllParameters()) n += p->value.size();
  return n;
}

void DualChannelClassifier::ZeroGrad() {
  for (Parameter* p : AllParameters()) p->ZeroGrad();
}

void DualChannelClassifier::ClearCache() {
  backbone_->ClearCache();
  gap_.ClearCache();
  head_.ClearCache();
}

}  // namespace cip::nn
