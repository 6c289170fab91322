// The federated server: global model state, auxiliary-data gradient
// (Algorithm 3 line 4), aggregation dispatch and model update.
//
// The flat parameter vector is the model's source of truth. Inference
// and the auxiliary gradient run on warm resident models, one per
// thread slot (ThisThreadSlot()), built outside any dispatch and synced
// to the parameters lazily when they change. The auxiliary gradient is
// exposed per example (AuxGradientRowInto) plus a fixed-order fold
// (FoldAuxGradient), so the trainer can run its rows in the same
// dispatch as the cohort's local steps; Step only consumes it.

#ifndef DPBR_FL_SERVER_H_
#define DPBR_FL_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/span.h"
#include "common/status.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace fl {

class Server {
 public:
  /// `aux` is the small server-held labeled set D_p (2 per class by
  /// default); may be empty when the aggregator never asks for a server
  /// gradient. `seed` controls model initialization.
  Server(nn::ModelFactory factory, agg::AggregatorPtr aggregator,
         data::DatasetView aux, uint64_t seed);

  const std::vector<float>& params() const { return params_; }
  size_t dim() const { return params_.size(); }
  agg::Aggregator* aggregator() { return aggregator_.get(); }
  /// |D_p|, the number of auxiliary-gradient rows.
  size_t aux_size() const { return aux_.size(); }

  /// Replaces the global model with snapshotted parameters (checkpoint
  /// restore). Rejects dimension mismatches.
  Status SetParams(std::vector<float> params);

  /// \brief Runs one aggregation + update step:
  /// w ← w − η·Aggregate(uploads).
  ///
  /// Zero-copy: `uploads` is a mutable view of the round's UploadArena.
  /// The sanitize pass zeroes rows containing non-finite values *in
  /// place* (g ← 0, as the first-stage filter does), and the aggregator
  /// may zero further rows; all-finite rounds touch nothing. An
  /// aggregator that needs the auxiliary gradient reads it from
  /// `ctx.server_gradient` (the caller computes it, see
  /// AuxGradientRowInto); without one the step fails with
  /// FailedPrecondition.
  Status Step(RowSpan uploads, double lr, agg::AggregationContext ctx);

  /// Legacy adapter: packs `uploads` into contiguous scratch and runs the
  /// span path. The caller's vectors are never modified.
  Status Step(const std::vector<std::vector<float>>& uploads, double lr,
              agg::AggregationContext ctx);

  /// Makes sure a warm model exists for every ThisThreadSlot() of the
  /// ambient pool (and of the calling thread). Builds only what is
  /// missing, so calling it again is cheap; call it outside any
  /// dispatch, before AuxGradientRowInto runs on a pool of a new size.
  void PrepareSlots();

  /// Writes auxiliary example i's gradient ∇f(x_i; w) at the current
  /// parameters into `row` (dim() floats, wholly overwritten): a
  /// batch-of-1 pass on the calling thread's slot model. Safe to run
  /// concurrently for distinct i from the bodies of one dispatch; the
  /// round runs these rows in the same dispatch as the local steps.
  void AuxGradientRowInto(size_t i, float* row);

  /// ∇f(D_p; w) from the aux_size() rows at `rows` (row i written by
  /// AuxGradientRowInto(i)): rows summed in index order within
  /// 64-example blocks, the block partials summed in block order, then
  /// scaled by 1/|D_p|. The order is fixed, so the result is bitwise
  /// independent of how the rows were scheduled. Requires aux_size() > 0.
  std::vector<float> FoldAuxGradient(const float* rows) const;

  /// ∇f(D_p; w): mean per-example gradient over the auxiliary data at the
  /// current parameters (no noise, no normalization — Algorithm 3 line 4).
  /// One dispatch of AuxGradientRowInto over D_p, then FoldAuxGradient.
  Result<std::vector<float>> ComputeServerGradient();

  /// Top-1 accuracy of the current model over `view`.
  double EvaluateAccuracy(const data::DatasetView& view);

 private:
  // Per-thread-slot state: a warm model (synced to params_ lazily, by
  // version) and the batch-of-1 input/label buffers of the aux rows, all
  // sized before any dispatch so aux items allocate no buffers of
  // their own.
  struct Slot {
    std::unique_ptr<nn::Sequential> model;
    uint64_t params_version = 0;
    Tensor x;
    std::vector<size_t> label;
  };

  // Appends a slot around `model` (params_version 0: synced on first
  // use) with its aux input/label buffers sized.
  void AddSlot(std::unique_ptr<nn::Sequential> model);
  // The calling thread's slot, its model synced to the current params.
  Slot& SyncedSlot();

  // params_ is the source of truth; every slot model mirrors it once
  // its params_version matches params_version_. The slots are built in
  // the constructor and by PrepareSlots, never inside a dispatch.
  nn::ModelFactory factory_;
  agg::AggregatorPtr aggregator_;
  data::DatasetView aux_;
  std::vector<float> params_;
  uint64_t params_version_ = 1;
  std::vector<Slot> slots_;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_SERVER_H_
