// Honest worker implementing the client side of Algorithm 1:
// per-example gradients → per-slot momentum → normalization → Gaussian
// perturbation → averaged upload.
//
// A worker keeps protocol state — shard, options, RNG key and momentum
// φ — plus the current round's scratch: its mini-batch, its noise key
// and one 1/‖φ_j‖ per example. A local step is three calls, so the
// round can spread one worker's step over threads: BeginRound, Examples
// over disjoint ranges of the batch (any order, any threads), then
// FinishBlock over the upload's coordinate blocks (any order, any
// threads) or FinishInto. Each example's gradient runs on the calling
// thread's slot of a ComputeSlots shared with the run's other workers
// and its server. All threads outside the pool share one slot, so two external
// threads must not run local steps on the same ComputeSlots at once.

#ifndef DPBR_FL_WORKER_H_
#define DPBR_FL_WORKER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "fl/compute_slots.h"
#include "nn/sequential.h"

namespace dpbr {
namespace fl {

/// How the momentum list is treated after an upload (Algorithm 1 line 11).
enum class MomentumReset {
  /// Literal reading of line 11: every slot is overwritten with the noisy
  /// uploaded gradient, φ[j] ← g_i.
  kResetToUpload,
  /// Conventional variant: per-slot momenta persist across rounds.
  kPersist,
};

/// Per-worker protocol knobs.
struct WorkerOptions {
  int batch_size = 16;  ///< bc; the paper stresses keeping this SMALL
  double beta = 0.1;    ///< momentum coefficient
  /// Std of the Gaussian noise added to the normalized-gradient *sum*
  /// (σ in Algorithm 1 line 10). 0 disables DP (reference runs).
  double sigma = 0.0;
  /// The default deviates from Algorithm 1 line 11's literal reading
  /// (φ[j] ← g_i): at this reproduction's scale, persisting the per-slot
  /// momentum trains markedly better, while the literal reset feeds the
  /// upload noise back into the momentum state (bench_ablations measures
  /// both). TrainerOptions and core::ExperimentConfig initialise from it.
  MomentumReset momentum_reset = MomentumReset::kPersist;
};

/// A worker following the DP protocol honestly on its local shard
/// (honest workers; also reused for Label-flip Byzantine workers, whose
/// shards have poisoned labels).
class HonestDpWorker {
 public:
  /// `seed` must be unique per worker; every round derives an independent
  /// stream from (seed, round), making runs thread-schedule independent.
  /// Prepares `slots`, which local steps run on.
  HonestDpWorker(int id, data::DatasetView shard,
                 std::shared_ptr<ComputeSlots> slots,
                 const WorkerOptions& options, uint64_t seed);

  /// A worker on compute slots of its own, built by `factory`.
  HonestDpWorker(int id, data::DatasetView shard, nn::ModelFactory factory,
                 const WorkerOptions& options, uint64_t seed);

  /// Runs Algorithm 1 lines 5-11, writing the upload g_i^t into `out`
  /// (dim() floats — typically the worker's row of the round's
  /// UploadArena). `out` is wholly overwritten. Same as a new parameter
  /// version, BeginRound, Examples over the whole batch, then FinishInto.
  void ComputeUpdateInto(const std::vector<float>& global_params, int round,
                         float* out);

  /// Line 5: draws round `round`'s mini-batch, then the key of the
  /// round's upload noise.
  void BeginRound(int round);

  /// Lines 6-8 for batch examples [lo, hi): each example's gradient at
  /// `global_params`, one example pass on the calling thread's slot,
  /// folded into its momentum slot φ_j, whose inverse norm is kept for
  /// FinishInto. Disjoint ranges may run in any order, concurrently on
  /// distinct threads; the caller orders them all before FinishInto.
  /// A slot reloads `global_params` only at a new parameter version, so
  /// a caller that changed it in place calls the slots' ParamsChanged()
  /// first (Server::Step and SetParams do for the server's parameters).
  void Examples(const std::vector<float>& global_params, size_t lo,
                size_t hi);

  /// Lines 9-11 for the upload's coordinate block `block` (coordinates
  /// [block·kGaussianFillBlock, +kGaussianFillBlock) of dim()), once
  /// every example of the round ran: writes (Σ_j φ_j/‖φ_j‖ in order j,
  /// plus the noise block drawn from the round's noise key) / bc into
  /// that block of the row `out`, then applies the momentum reset to
  /// it. Blocks touch disjoint coordinates, so they may run in any order,
  /// concurrently on distinct threads.
  void FinishBlock(size_t block, float* out);

  /// FinishBlock over every block of `out` (wholly written).
  void FinishInto(float* out);

  /// Coordinate blocks of an upload: FinishBlock's range of `block`.
  size_t num_blocks() const;

  int id() const { return id_; }
  /// bc, the examples of one local step.
  size_t batch_size() const { return momentum_.size(); }
  size_t dim() const { return slots_->dim(); }
  /// Key of this worker's RNG stream (its per-round streams derive from
  /// it); persisted in checkpoints so recovery can verify the derivation
  /// chain before trusting a snapshot.
  uint64_t rng_key() const { return seed_; }

  /// Momentum list φ (batch_size slots × dim) — the worker's only
  /// cross-round state, snapshotted by the durable trainer.
  const std::vector<std::vector<float>>& momentum() const {
    return momentum_;
  }

  /// Replaces φ with a snapshotted list. Rejects shape mismatches (wrong
  /// slot count or slot dimension) so a checkpoint from a different
  /// configuration can never be loaded silently.
  Status RestoreMomentum(const std::vector<std::vector<float>>& momentum);

 private:
  int id_;
  data::DatasetView shard_;
  std::shared_ptr<ComputeSlots> slots_;
  WorkerOptions options_;
  uint64_t seed_;
  /// Momentum list φ: batch_size slots of dimension d (Algorithm 1 line 1).
  std::vector<std::vector<float>> momentum_;
  /// The round in flight: its batch, float(1/max(‖φ_j‖, 1e-12)) per
  /// example, and the key of its noise blocks (the one Next64() that
  /// AddGaussian would draw from the round's stream after the batch).
  std::vector<size_t> batch_;
  std::vector<float> inv_norm_;
  uint64_t noise_key_ = 0;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_WORKER_H_
