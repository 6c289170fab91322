// The federated server: global model state, auxiliary-data gradient
// (Algorithm 3 line 4), aggregation dispatch and model update.
//
// The server keeps only w (flat parameters), D_p and the aggregator.
// Inference and the auxiliary gradient run on the calling thread's slot
// of a ComputeSlots shared with the run's workers, each pass loading w
// first. The auxiliary gradient is exposed per example
// (AuxGradientRowInto) plus a fixed-order fold over coordinate ranges
// (FoldAuxGradientInto), so the trainer can run its rows in the same
// dispatch as the cohort's local steps and its fold in the same dispatch
// as their uploads; Step only consumes it. All threads outside the pool
// share one slot, so two external threads must not compute on it at
// once.

#ifndef DPBR_FL_SERVER_H_
#define DPBR_FL_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/span.h"
#include "common/status.h"
#include "data/dataset.h"
#include "fl/compute_slots.h"
#include "nn/sequential.h"

namespace dpbr {
namespace fl {

class Server {
 public:
  /// `aux` is the small server-held labeled set D_p (2 per class by
  /// default); may be empty when the aggregator never asks for a server
  /// gradient. `seed` controls model initialization, which runs on the
  /// calling thread's slot model.
  Server(std::shared_ptr<ComputeSlots> slots, agg::AggregatorPtr aggregator,
         data::DatasetView aux, uint64_t seed);

  /// A server on compute slots of its own, built by `factory`.
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

  /// Writes auxiliary example i's gradient ∇f(x_i; w) at the current
  /// parameters into `row` (dim() floats, wholly overwritten): one
  /// example pass on the calling thread's slot model. Safe to run
  /// concurrently for distinct i from the bodies of one dispatch; the
  /// round runs these rows in the same dispatch as the local steps.
  void AuxGradientRowInto(size_t i, float* row);

  /// Coordinates [lo, hi) of ∇f(D_p; w) from the aux_size() rows at
  /// `rows` (row i written by AuxGradientRowInto(i)), written into
  /// out[lo, hi): per coordinate, rows summed in index order within
  /// 64-example blocks, the block partials summed in block order, then
  /// scaled by 1/|D_p|. The order is fixed per coordinate, so the result
  /// is bitwise independent of how the rows and the ranges were
  /// scheduled. Requires aux_size() > 0.
  void FoldAuxGradientInto(const float* rows, size_t lo, size_t hi,
                           float* out) const;

  /// The whole of ∇f(D_p; w): FoldAuxGradientInto over every coordinate.
  std::vector<float> FoldAuxGradient(const float* rows) const;

  /// ∇f(D_p; w): mean per-example gradient over the auxiliary data at the
  /// current parameters (no noise, no normalization — Algorithm 3 line 4).
  /// One dispatch of AuxGradientRowInto over D_p, then FoldAuxGradient.
  Result<std::vector<float>> ComputeServerGradient();

  /// Top-1 accuracy of the current model over `view`: one forward pass
  /// per example, one dispatch item each.
  double EvaluateAccuracy(const data::DatasetView& view);

 private:
  std::shared_ptr<ComputeSlots> slots_;
  agg::AggregatorPtr aggregator_;
  data::DatasetView aux_;
  std::vector<float> params_;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_SERVER_H_
