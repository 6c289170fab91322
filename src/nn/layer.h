// Layer abstraction: one batched forward/backward per layer.
//
// The DP protocol (Algorithm 1) consumes *per-example* gradients. Every
// layer runs a whole microbatch per call — leading dimension = batch
// size, a single example being a batch of 1 — and its BackwardBatch
// writes each example's parameter gradient to its own row of a
// (batch × model_dim) sink: the per-example separation the DP clipping
// needs, without a per-sample loop over the model. Row j of a batch-N
// pass is bitwise equal to the batch-1 pass of example j.
//
// Layers cache whatever they need during the forward pass; a layer
// instance serves exactly one microbatch at a time (a federated run
// keeps one model per pool thread slot in fl::ComputeSlots, and a slot's
// model runs one pass at a time). Every stateful layer records the
// input shape of its last forward in a BatchState, and every backward
// reads it back, so a backward with no forward before it dies loudly
// instead of reading uninitialized caches. Any forward may follow a
// completed backward (evaluation between training steps).
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

/// Shape record for a layer's cached forward state.
///
/// Each ForwardBatch records its input shape (dim 0 = batch); each
/// BackwardBatch reads it back to size its output and check `grad_out`.
/// A backward before any forward has run DPBR_CHECK-fails loudly instead
/// of consuming uninitialized caches.
class BatchState {
 public:
  /// Records a forward whose input shape is `shape`.
  void SetBatched(const std::vector<size_t>& shape);

  /// Returns the last forward's input shape; fails fatally (naming
  /// `layer`) when no forward has run.
  const std::vector<size_t>& RequireBatched(const char* layer) const;

 private:
  bool has_forward_ = false;
  // Assigned (not reallocated, after the first call of equal rank) each
  // forward; reads hand out a const reference, never a copy.
  std::vector<size_t> shape_;
};

/// Mutable view into one parameter tensor.
struct ParamView {
  float* value = nullptr;
  size_t size = 0;
};

/// Destination for per-example parameter gradients during BackwardBatch.
/// Example j's gradient for this layer's parameter p lands at
/// base[j * stride + offset + p]; rows must be zeroed by the caller
/// before the backward pass (layers accumulate into them).
///
/// Row ownership: example j's backward writes only row j, so row j of a
/// batch-N pass is bitwise equal to the batch-1 pass of example j, and
/// the rows are independent of the pool size the surrounding round runs
/// on — the TSan-tier case in tests/aggregators/determinism_test.cc pins
/// this.
struct PerExampleGradSink {
  float* base = nullptr;
  size_t stride = 0;  ///< model dimension d
  size_t offset = 0;  ///< first flat-parameter coordinate of this layer

  float* Slot(size_t example) const { return base + example * stride + offset; }

  /// The same sink shifted to a sublayer whose parameters start
  /// `delta` coordinates further into the flat vector.
  PerExampleGradSink Shifted(size_t delta) const {
    return {base, stride, offset + delta};
  }
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a microbatch whose leading dimension
  /// is the batch size, caching what BackwardBatch needs.
  virtual Tensor ForwardBatch(const Tensor& x) = 0;

  /// Given dL/d(output) for the last ForwardBatch, returns dL/d(input)
  /// (leading batch dimension) and writes *per-example* parameter
  /// gradients into `sink` (accumulating; rows pre-zeroed by the caller).
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
  // identically on the same contract violation (same message, same
  // check) instead of each hand-rolling its own copies.

  /// Forward input check: `x` must have rank `rank` (at least `rank`
  /// when `at_least_rank`) and a positive leading batch dimension.
  /// Returns the batch size. Layer-specific dimension checks and the
  /// SetBatched recording stay with the caller (they need the layer's
  /// own fields).
  size_t RequireBatchedInput(const Tensor& x, size_t rank,
                             bool at_least_rank = false) const;

  /// Asserts a forward has run (naming this layer) and returns its
  /// cached input shape (dim 0 = batch).
  const std::vector<size_t>& RequireBatchedState() const;

  /// Asserts `grad_out`'s shape is exactly `expected`.
  void RequireGradShape(const Tensor& grad_out,
                        const std::vector<size_t>& expected) const;

  /// Input shape of the last forward.
  BatchState state_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LAYER_H_
