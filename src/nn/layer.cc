#include "nn/layer.h"

#include "common/logging.h"

namespace dpbr {
namespace nn {

void BatchState::SetPerExample(const std::vector<size_t>& shape) {
  path_ = Path::kPerExample;
  shape_ = shape;
}

void BatchState::SetBatched(const std::vector<size_t>& shape) {
  path_ = Path::kBatched;
  shape_ = shape;
}

const std::vector<size_t>& BatchState::RequirePerExample(
    const char* layer) const {
  if (path_ != Path::kPerExample) {
    DPBR_LOG_STREAM(Fatal)
        << layer << ": cached-state contract violated — Backward requires "
        << "the last forward to be Forward, but "
        << (path_ == Path::kNone ? "no forward has run"
                                 : "it was ForwardBatch")
        << "; the shared caches would be stale";
  }
  return shape_;
}

const std::vector<size_t>& BatchState::RequireBatched(
    const char* layer) const {
  if (path_ != Path::kBatched) {
    DPBR_LOG_STREAM(Fatal)
        << layer << ": cached-state contract violated — BackwardBatch "
        << "requires the last forward to be ForwardBatch, but "
        << (path_ == Path::kNone ? "no forward has run" : "it was Forward")
        << "; the shared caches would be stale";
  }
  return shape_;
}

Tensor Layer::ForwardBatch(const Tensor& /*x*/) {
  DPBR_LOG_STREAM(Fatal) << name() << " does not implement ForwardBatch";
  return Tensor();
}

Tensor Layer::BackwardBatch(const Tensor& /*grad_out*/,
                            const PerExampleGradSink& /*sink*/) {
  DPBR_LOG_STREAM(Fatal) << name() << " does not implement BackwardBatch";
  return Tensor();
}

size_t Layer::RequireBatchedInput(const Tensor& x, size_t rank,
                                  bool at_least_rank) const {
  if (at_least_rank) {
    DPBR_CHECK_GE(x.ndim(), rank);
  } else {
    DPBR_CHECK_EQ(x.ndim(), rank);
  }
  size_t batch = x.dim(0);
  DPBR_CHECK_GT(batch, 0u);
  return batch;
}

const std::vector<size_t>& Layer::RequireBatchedState() const {
  return state_.RequireBatched(name().c_str());
}

const std::vector<size_t>& Layer::RequirePerExampleState() const {
  return state_.RequirePerExample(name().c_str());
}

void Layer::RequireGradShape(const Tensor& grad_out,
                             const std::vector<size_t>& expected) const {
  DPBR_CHECK_EQ(grad_out.ndim(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    DPBR_CHECK_EQ(grad_out.dim(i), expected[i]);
  }
}

void Layer::ZeroGrad() {
  for (ParamView& p : Params()) {
    for (size_t i = 0; i < p.size; ++i) p.grad[i] = 0.0f;
  }
}

size_t Layer::NumParams() {
  size_t n = 0;
  for (const ParamView& p : Params()) n += p.size;
  return n;
}

}  // namespace nn
}  // namespace dpbr
