// Layer abstraction for per-example and batched forward/backward.
//
// The DP protocol (Algorithm 1) consumes *per-example* gradients, so the
// layer contract exposes two paths to them:
//   * the per-example path (Forward/Backward), one example at a time, and
//   * the microbatch path (ForwardBatch/BackwardBatch), which runs one
//     kernel invocation per layer over a whole clipped microbatch and
//     writes each example's parameter gradient to its own row of a
//     (batch × model_dim) sink — the per-example separation the DP
//     clipping needs, without the per-sample Python-loop shape.
// Layers cache whatever they need during the forward pass; a layer
// instance serves exactly one example or one microbatch at a time (each
// federated worker owns a private model copy). The two paths share one
// set of cache slots, so every stateful layer records which path wrote
// them in a BatchState and every backward asserts the matching path —
// interleaving Forward and ForwardBatch (eval between training steps)
// can therefore never silently read stale shapes or activations.
//
// Parallelism lives in one place per layer type: only the layers that
// own a GEMM (Conv2d, Linear) split a batched pass across the thread
// pool, one dispatch per direction. The cheap layers (activations,
// GroupNorm, pooling, Flatten) run their batched loops serially: their
// work is small next to the GEMMs', and inside a federated round every
// local step already runs on a pool worker, where nested dispatches
// execute inline anyway.

#ifndef DPBR_NN_LAYER_H_
#define DPBR_NN_LAYER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace nn {

/// Tag + shape record for a layer's cached forward state.
///
/// Layers keep one set of cache slots (workspace buffers, shape fields)
/// shared between the per-example and the batched path, so a backward
/// call is only valid against the *last* forward's path: a 3-D Backward
/// after a 4-D ForwardBatch would otherwise misread `[batch, c, h]` as
/// `[c, h, w]` and consume stale activations. BatchState makes that
/// contract checked — each forward records its path and input shape,
/// each backward asserts the matching path and reads the shape back;
/// a mismatch DPBR_CHECK-fails loudly instead of corrupting gradients.
class BatchState {
 public:
  /// Records a per-example forward whose cached input shape is `shape`.
  void SetPerExample(const std::vector<size_t>& shape);

  /// Records a batched forward; `shape`'s leading dimension is the batch.
  void SetBatched(const std::vector<size_t>& shape);

  /// Returns the cached per-example input shape; fails fatally (naming
  /// `layer`) unless the last forward was the per-example path.
  const std::vector<size_t>& RequirePerExample(const char* layer) const;

  /// Returns the cached batched input shape (dim 0 = batch size); fails
  /// fatally unless the last forward was the batched path.
  const std::vector<size_t>& RequireBatched(const char* layer) const;

 private:
  enum class Path : uint8_t { kNone, kPerExample, kBatched };

  Path path_ = Path::kNone;
  // Assigned (not reallocated, after the first call of equal rank) each
  // forward; reads hand out a const reference, never a copy.
  std::vector<size_t> shape_;
};

/// Mutable view into one parameter tensor and its gradient accumulator.
struct ParamView {
  float* value = nullptr;
  float* grad = nullptr;
  size_t size = 0;
};

/// Destination for per-example parameter gradients during BackwardBatch.
/// Example j's gradient for this layer's parameter p lands at
/// base[j * stride + offset + p]; rows must be zeroed by the caller
/// before the backward pass (layers accumulate into them).
///
/// Row ownership under batched dispatches: GEMM layers write sink rows
/// from inside their single ParallelForBlocked backward dispatch, where
/// the task handling example j owns row j exclusively (examples are split
/// across tasks by the shape only, and no two examples share a row), so
/// the writes are race-free and the row contents are independent of the
/// pool size — the TSan-tier case in
/// tests/aggregators/determinism_test.cc pins this.
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

  /// Computes the layer output for a single example, caching activations
  /// needed by Backward.
  virtual Tensor Forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulates dL/d(params) into the grad buffers
  /// and returns dL/d(input). Must be preceded by a matching Forward.
  virtual Tensor Backward(const Tensor& grad_out) = 0;

  /// Computes the layer output for a microbatch whose leading dimension
  /// is the batch size. Caches batch activations for BackwardBatch. The
  /// default CHECK-fails; every layer the model zoo uses overrides it.
  virtual Tensor ForwardBatch(const Tensor& x);

  /// Batched counterpart of Backward: returns dL/d(input) with leading
  /// batch dimension and writes *per-example* parameter gradients into
  /// `sink` (accumulating; rows pre-zeroed by the caller). Must be
  /// preceded by a matching ForwardBatch.
  virtual Tensor BackwardBatch(const Tensor& grad_out,
                               const PerExampleGradSink& sink);

  /// Views over this layer's parameters (empty for stateless layers).
  virtual std::vector<ParamView> Params() { return {}; }

  /// Initializes parameters (weights: layer-appropriate scheme; biases: 0).
  virtual void InitParams(SplitRng* /*rng*/) {}

  /// Zeroes all gradient accumulators.
  void ZeroGrad();

  /// Total number of scalar parameters.
  size_t NumParams();

  virtual std::string name() const = 0;

 protected:
  // --- shared precondition helpers ----------------------------------
  //
  // Every batched entry point asserts through these, so all layers fail
  // identically on the same contract violation (same message, same
  // check) instead of each hand-rolling its own copies.

  /// Batched-forward input check: `x` must have rank `rank` (at least
  /// `rank` when `at_least_rank`) and a positive leading batch
  /// dimension. Returns the batch size. Layer-specific dimension checks
  /// and the SetBatched recording stay with the caller (they need the
  /// layer's own fields).
  size_t RequireBatchedInput(const Tensor& x, size_t rank,
                             bool at_least_rank = false) const;

  /// Asserts the last forward was batched (naming this layer) and
  /// returns its cached input shape (dim 0 = batch).
  const std::vector<size_t>& RequireBatchedState() const;

  /// Asserts the last forward was per-example (naming this layer) and
  /// returns its cached input shape.
  const std::vector<size_t>& RequirePerExampleState() const;

  /// Asserts `grad_out`'s shape is exactly `expected`.
  void RequireGradShape(const Tensor& grad_out,
                        const std::vector<size_t>& expected) const;

  /// Which path (per-example or batched) last filled this layer's shared
  /// caches.
  BatchState state_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LAYER_H_
