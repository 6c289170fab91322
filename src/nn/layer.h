// Layer abstraction: one example per forward/backward pass.
//
// The DP protocol (Algorithm 1) consumes *per-example* gradients, and a
// federated round computes each in its own pass: every layer's
// ForwardBatch takes exactly one example (leading dimension 1; any other
// dies loudly) and its BackwardBatch adds that example's parameter
// gradient to one flat gradient row, the PerExampleGradSink.
//
// Layers cache whatever they need during the forward pass; a layer
// instance serves one pass at a time (a federated run keeps one model per
// pool thread slot in fl::ComputeSlots, and a slot's model runs one pass
// at a time). Every layer records the input shape of its forward, and
// every backward reads it back, so a backward with no forward before it
// dies loudly instead of reading uninitialized caches. Any forward may
// follow a completed backward (evaluation between training steps).
//
// Every layer computes on the calling thread and never touches the
// thread pool. A federated round is one dispatch whose items are whole
// passes (an example of a local step, a server-gradient row, an
// evaluated example), so the parallelism lives there, one model per
// thread slot.

#ifndef DPBR_NN_LAYER_H_
#define DPBR_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace nn {

/// Mutable view into one parameter tensor.
struct ParamView {
  float* value = nullptr;
  size_t size = 0;
};

/// Destination of the example's parameter gradient during BackwardBatch:
/// this layer's parameter p lands at base[offset + p]. The row must be
/// zeroed by the caller before the backward pass (layers accumulate into
/// it).
struct PerExampleGradSink {
  float* base = nullptr;
  size_t offset = 0;  ///< first flat-parameter coordinate of this layer

  float* Row() const { return base + offset; }

  /// The same sink shifted to a sublayer whose parameters start
  /// `delta` coordinates further into the flat vector.
  PerExampleGradSink Shifted(size_t delta) const {
    return {base, offset + delta};
  }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for one example (leading dimension 1),
  /// caching what BackwardBatch needs.
  virtual Tensor ForwardBatch(const Tensor& x) = 0;

  /// Given dL/d(output) for the last ForwardBatch, returns dL/d(input)
  /// and adds the example's parameter gradient into `sink` (the row is
  /// pre-zeroed by the caller).
  virtual Tensor BackwardBatch(const Tensor& grad_out,
                               const PerExampleGradSink& sink) = 0;

  /// Views over this layer's parameters (empty for stateless layers).
  virtual std::vector<ParamView> Params() { return {}; }

  /// Initializes parameters (weights: layer-appropriate scheme; biases: 0).
  virtual void InitParams(SplitRng* /*rng*/) {}

  /// Total number of scalar parameters.
  size_t NumParams();

  virtual std::string name() const = 0;

 protected:
  // --- shared precondition helpers ----------------------------------
  //
  // Every entry point asserts through these, so all layers fail
  // identically on the same contract violation.

  /// Forward input check: `x` must have rank `rank` (at least `rank`
  /// when `at_least_rank`) and hold one example (leading dimension 1).
  /// Records its shape for the backward. Layer-specific dimension checks
  /// stay with the caller.
  void RecordInput(const Tensor& x, size_t rank, bool at_least_rank = false);

  /// Asserts a forward has run (naming this layer) and returns its input
  /// shape.
  const std::vector<size_t>& RequireForward() const;

  /// Asserts `grad_out`'s shape is exactly `expected`.
  void RequireGradShape(const Tensor& grad_out,
                        const std::vector<size_t>& expected) const;

 private:
  // Input shape of the last forward; empty before the first. Assigned
  // (not reallocated, once its rank is reached) each forward.
  std::vector<size_t> input_shape_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LAYER_H_
