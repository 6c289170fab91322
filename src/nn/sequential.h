// Sequential container and residual block; plus the flat parameter-vector
// bridge the FL protocol needs (models are broadcast and updated as flat
// float vectors of dimension d).

#ifndef DPBR_NN_SEQUENTIAL_H_
#define DPBR_NN_SEQUENTIAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dpbr {
namespace nn {

/// Chain of layers applied in order: each layer's ForwardBatch, then
/// each BackwardBatch in reverse.
class Sequential : public Layer {
 public:
  /// Appends a layer (builder style).
  Sequential& Add(LayerPtr layer);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Sequential"; }

  /// Backward writing the example's full flat parameter gradient
  /// (dimension NumParams()) to `row`, which it zeroes first; returns
  /// dL/d(input). This is the per-example gradient entry point the DP
  /// worker normalizes.
  Tensor BackwardTo(const Tensor& grad_out, float* row);

  Layer* layer(size_t i) { return layers_[i].get(); }

  // --- flat parameter bridge (dimension d = NumParams()) ---

  /// Copies all parameters into `out` (size must be NumParams()).
  void CopyParamsTo(float* out);

  /// Overwrites all parameters from `in`.
  void SetParamsFrom(const float* in);

  /// Convenience vector version of CopyParamsTo.
  std::vector<float> FlatParams();

 private:
  std::vector<LayerPtr> layers_;
  // Flat-parameter offset of each sublayer (maintained by Add, so a
  // BackwardBatch never re-derives or reallocates it).
  std::vector<size_t> param_offsets_;
  size_t total_params_ = 0;
};

/// Residual wrapper: y = x + body(x). Requires body to preserve shape
/// (the paper's Colorectal CNN uses one residual connection).
class Residual : public Layer {
 public:
  explicit Residual(std::unique_ptr<Sequential> body);

  Tensor ForwardBatch(const Tensor& x) override;
  Tensor BackwardBatch(const Tensor& grad_out,
                       const PerExampleGradSink& sink) override;
  std::vector<ParamView> Params() override;
  void InitParams(SplitRng* rng) override;
  std::string name() const override { return "Residual"; }

  Sequential* body() { return body_.get(); }

 private:
  std::unique_ptr<Sequential> body_;
};

/// Factory producing fresh, identically-structured models; each federated
/// worker instantiates its own copy and syncs parameters by flat vector.
using ModelFactory = std::function<std::unique_ptr<Sequential>()>;

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_SEQUENTIAL_H_
