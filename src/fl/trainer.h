// Federated training loop (Algorithm 1 server side + experiment plumbing).
//
// One FederatedTrainer owns: the honest workers (Algorithm 1 clients over
// shards of the training data), the optional Byzantine attack, the server
// with its pluggable aggregation rule, privacy calibration, and the
// learning-rate transfer rule η = η_b · σ_b / σ (paper CLAIM 6).

#ifndef DPBR_FL_TRAINER_H_
#define DPBR_FL_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/status.h"
#include "data/dataset.h"
#include "dp/privacy_params.h"
#include "dp/spent_ledger.h"
#include "durability/wal.h"
#include "fl/attack_interface.h"
#include "fl/compute_slots.h"
#include "fl/metrics.h"
#include "fl/round_state.h"
#include "fl/server.h"
#include "fl/worker.h"
#include "nn/sequential.h"

namespace dpbr {
namespace fl {

/// Full experiment configuration (defaults follow the paper §6.1).
struct TrainerOptions {
  int num_honest = 20;
  int num_byzantine = 0;

  // DP protocol (Algorithm 1).
  double epsilon = 1.0;  ///< <= 0 disables DP
  double delta = -1.0;   ///< < 0 derives 1/|D|^1.1
  int batch_size = 16;   ///< bc
  double beta = 0.1;     ///< momentum
  int epochs = 8;
  MomentumReset momentum_reset = WorkerOptions{}.momentum_reset;

  // Learning rate: η = base_lr · σ_b/σ (dp::TransferLearningRate, which
  // rejects base_lr <= 0) where σ_b is calibrated at
  // transfer_base_epsilon; set transfer_base_epsilon <= 0 to use base_lr
  // verbatim (then base_lr is η itself).
  double base_lr = 0.2;
  double transfer_base_epsilon = 2.0;

  // Server belief: at least ⌈γn⌉ workers honest. < 0 uses the truth
  // (num_honest / n).
  double gamma = -1.0;

  /// Per-round client Poisson participation rate q_c ∈ (0, 1]. Each honest
  /// worker joins a round independently with probability q_c (Byzantine
  /// workers always show up — the attacker controls them). The privacy
  /// accountant charges rounds at the amplified rate q_c·q and the round
  /// count scales by 1/q_c; 1 is the paper's full-participation protocol.
  double client_sampling_rate = 1.0;

  // Data layout.
  bool iid = true;
  int aux_per_class = 2;
  /// Auxiliary data source: by default the bundle's validation split; an
  /// out-of-distribution source can be injected for Table 17 experiments.
  const data::Dataset* aux_source_override = nullptr;

  uint64_t seed = 1;
  /// Evaluate every `eval_every_epochs` epochs (and always at the end).
  double eval_every_epochs = 1.0;

  // Durability (docs/durability.md). With a checkpoint directory set the
  // trainer appends one WAL commit record per round, snapshots the full
  // cross-round state every `checkpoint_every_n_rounds` rounds (and at
  // the final or an interrupted round), installs the graceful-shutdown
  // signal handler, and — when the directory already holds a snapshot of
  // the SAME experiment — resumes after its last committed round instead
  // of starting over. Empty (the default) disables all of it.
  std::string checkpoint_dir;
  int checkpoint_every_n_rounds = 1;
  /// Testing hook: commit this round, write a final checkpoint, and
  /// return early with history.interrupted = true — a deterministic
  /// stand-in for SIGINT landing between rounds. < 0 disables.
  int stop_after_round = -1;
};

/// Orchestrates one federated run.
class FederatedTrainer {
 public:
  /// `bundle` must outlive the trainer. `attack` may be null when
  /// num_byzantine == 0.
  FederatedTrainer(const data::DatasetBundle* bundle,
                   nn::ModelFactory model_factory,
                   agg::AggregatorPtr aggregator, AttackPtr attack,
                   TrainerOptions options);

  /// Runs the full training loop and returns the history.
  Result<TrainingHistory> Run();

  /// Privacy calibration used by this run (valid after Run() or after
  /// a successful Setup()).
  const dp::PrivacyParams& privacy() const { return privacy_; }
  double learning_rate() const { return lr_; }
  int total_rounds() const { return total_rounds_; }
  /// The server (non-null after Run() or a successful Setup()); exposed so
  /// tests and diagnostics can inspect the trained model.
  Server* server() { return server_.get(); }
  /// Privacy budget actually spent by the last Run() (resume-aware: after
  /// a resumed run it covers the whole experiment, not just the tail).
  const dp::SpentLedger& spent_ledger() const { return ledger_; }

 private:
  Status Setup();
  /// Configuration identity for checkpoint compatibility checks.
  RoundStateFingerprint Fingerprint() const;
  /// Streams the full cross-round state after `completed_round` into
  /// that round's checkpoint, straight from the live objects.
  Status WriteSnapshot(int completed_round,
                       const TrainingHistory& history) const;
  /// Restores a snapshot into the live objects; on success `*history`
  /// holds the snapshot's history prefix and `*start_round` the first
  /// round still to run.
  Status RestoreFromSnapshot(const PersistentRoundState& state,
                             TrainingHistory* history, int* start_round);

  const data::DatasetBundle* bundle_;
  nn::ModelFactory model_factory_;
  agg::AggregatorPtr aggregator_hold_;  // moved into server_ during Setup
  AttackPtr attack_;
  TrainerOptions options_;

  /// Per-thread-slot models, shared by the server and every worker.
  std::shared_ptr<ComputeSlots> compute_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<HonestDpWorker>> honest_workers_;
  /// Poisoned-protocol workers backing data-poisoning attacks (only
  /// instantiated when the attack asks for them).
  std::vector<std::unique_ptr<HonestDpWorker>> poisoned_workers_;

  dp::PrivacyParams privacy_;
  double lr_ = 0.0;
  double gamma_ = 0.5;
  int total_rounds_ = 0;
  int rounds_per_epoch_ = 0;
  bool setup_done_ = false;

  /// Privacy budget committed so far (rebuilt or restored by Run()).
  dp::SpentLedger ledger_;
  /// Open WAL handle while a durable Run() is in flight.
  durability::WalWriter wal_;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_TRAINER_H_
