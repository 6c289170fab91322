// High-level experiment driver: every experiment of bench_paper
// (docs/benchmarks.md, "The binaries") is a thin loop over
// RunExperiment configurations.

#ifndef DPBR_CORE_EXPERIMENT_H_
#define DPBR_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/status.h"
#include "core/protocol_options.h"
#include "fl/attack_interface.h"
#include "fl/metrics.h"
#include "fl/worker.h"
#include "stats/summary.h"

namespace dpbr {
namespace core {

/// Seed of the synthetic data generation itself (fixed: the paper's
/// datasets do not change across repetition seeds).
inline constexpr uint64_t kDataSeed = 42;
/// Hidden width of the paper's MLP (d = 25450 on 784 inputs).
inline constexpr size_t kMlpHidden = 32;

/// One paper-style experiment cell.
struct ExperimentConfig {
  std::string dataset = "synth_mnist";
  double epsilon = 2.0;  ///< <= 0 → non-DP

  /// Worker population. num_honest < 0 uses the dataset's registry
  /// default (20 or 10, as in the paper).
  int num_honest = -1;
  int num_byzantine = 0;

  /// Attack: "none", "gaussian", "label_flip", "opt_lmp", "a_little",
  /// "inner_product". ttbb >= 0 wraps it in the adaptive attack.
  std::string attack = "none";
  double ttbb = -1.0;

  /// Aggregation rule: "dpbr", "mean", "krum", "multi_krum",
  /// "coordinate_median", "trimmed_mean", "rfa", "fltrust", "sign_sgd",
  /// "norm_bound".
  std::string aggregator = "dpbr";
  /// Ablations of the dpbr rule.
  bool first_stage = true;
  bool second_stage = true;
  UpdateScale update_scale = UpdateScale::kOverSelected;

  /// Server belief γ (< 0 → the truth: honest fraction).
  double gamma = -1.0;

  bool iid = true;
  int epochs = -1;  ///< < 0 → registry default
  int batch_size = 16;
  double beta = 0.1;
  double base_lr = 0.2;
  double transfer_base_epsilon = 2.0;
  fl::MomentumReset momentum_reset = fl::WorkerOptions{}.momentum_reset;
  int aux_per_class = 2;
  /// Supp. Table 17: draw the server's auxiliary data from this other
  /// benchmark's data space instead of the task's own validation split.
  std::string ood_aux_dataset;

  /// Durable-run root (docs/durability.md): when non-empty, each seed's
  /// trainer checkpoints into "<checkpoint_dir>/seed<seed>" and resumes
  /// from it on a re-run. Empty disables durability.
  std::string checkpoint_dir;
  int checkpoint_every_n_rounds = 1;

  /// Seeds to repeat over (the paper uses {1, 2, 3}).
  std::vector<uint64_t> seeds = {1, 2, 3};
};

/// Aggregated outcome across seeds.
struct ExperimentResult {
  stats::RunningStats accuracy;  ///< final test accuracy over seeds
  std::vector<fl::TrainingHistory> histories;
  double sigma = 0.0;          ///< calibrated σ (first seed)
  double learning_rate = 0.0;  ///< η actually used (first seed)
};

/// Builds the attack named in `config` (Result error for unknown names;
/// returns a null AttackPtr for "none").
Result<fl::AttackPtr> MakeAttack(const ExperimentConfig& config);

/// Builds the aggregation rule named in `config`.
Result<agg::AggregatorPtr> MakeAggregator(const ExperimentConfig& config);

/// Runs the experiment across all seeds.
Result<ExperimentResult> RunExperiment(const ExperimentConfig& config);

/// The same experiment in the paper's Reference Accuracy mode (mean
/// aggregation, no Byzantine workers, same privacy and data settings).
Result<ExperimentResult> RunReference(ExperimentConfig config);

}  // namespace core
}  // namespace dpbr

#endif  // DPBR_CORE_EXPERIMENT_H_
