#include "nn/sequential.h"

#include <cstring>

#include "common/logging.h"

namespace dpbr {
namespace nn {

Sequential& Sequential::Add(LayerPtr layer) {
  DPBR_CHECK(layer != nullptr);
  // Parameter counts are fixed at construction, so the offset table can
  // be maintained incrementally here instead of per backward call.
  param_offsets_.push_back(total_params_);
  total_params_ += layer->NumParams();
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::ForwardBatch(const Tensor& x) {
  Tensor h = x;
  for (auto& l : layers_) h = l->ForwardBatch(h);
  return h;
}

Tensor Sequential::BackwardBatch(const Tensor& grad_out,
                                 const PerExampleGradSink& sink) {
  Tensor g = grad_out;
  for (size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->BackwardBatch(g, sink.Shifted(param_offsets_[i]));
  }
  return g;
}

Tensor Sequential::BackwardTo(const Tensor& grad_out, float* row) {
  size_t dim = total_params_;
  // Guards the Add()-time offset cache against any future layer whose
  // parameter count changes after registration: a stale table would
  // misalign every downstream sink offset silently.
  DPBR_CHECK_EQ(dim, NumParams());
  std::memset(row, 0, dim * sizeof(float));
  return BackwardBatch(grad_out, {row, 0});
}

std::vector<ParamView> Sequential::Params() {
  std::vector<ParamView> all;
  for (auto& l : layers_) {
    for (auto& p : l->Params()) all.push_back(p);
  }
  return all;
}

void Sequential::InitParams(SplitRng* rng) {
  // Each layer gets its own derived stream so adding layers does not
  // reshuffle earlier layers' initialization.
  uint64_t idx = 0;
  for (auto& l : layers_) {
    SplitRng child = rng->Split(idx++);
    l->InitParams(&child);
  }
}

void Sequential::CopyParamsTo(float* out) {
  size_t off = 0;
  for (auto& p : Params()) {
    for (size_t i = 0; i < p.size; ++i) out[off + i] = p.value[i];
    off += p.size;
  }
}

void Sequential::SetParamsFrom(const float* in) {
  size_t off = 0;
  for (auto& p : Params()) {
    for (size_t i = 0; i < p.size; ++i) p.value[i] = in[off + i];
    off += p.size;
  }
}

std::vector<float> Sequential::FlatParams() {
  std::vector<float> v(NumParams());
  CopyParamsTo(v.data());
  return v;
}

Residual::Residual(std::unique_ptr<Sequential> body)
    : body_(std::move(body)) {
  DPBR_CHECK(body_ != nullptr);
}

Tensor Residual::ForwardBatch(const Tensor& x) {
  Tensor y = body_->ForwardBatch(x);
  DPBR_CHECK(y.SameShape(x));
  for (size_t i = 0; i < y.size(); ++i) y[i] += x[i];
  return y;
}

Tensor Residual::BackwardBatch(const Tensor& grad_out,
                               const PerExampleGradSink& sink) {
  Tensor dx = body_->BackwardBatch(grad_out, sink);
  DPBR_CHECK(dx.SameShape(grad_out));
  for (size_t i = 0; i < dx.size(); ++i) dx[i] += grad_out[i];
  return dx;
}

std::vector<ParamView> Residual::Params() { return body_->Params(); }

void Residual::InitParams(SplitRng* rng) { body_->InitParams(rng); }

}  // namespace nn
}  // namespace dpbr
