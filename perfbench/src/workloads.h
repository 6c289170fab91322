// The benchmark's workloads: three paper configurations run end to end
// through fl::FederatedTrainer, each chosen so that a different layer
// dominates the round (see workloads.cc and perfbench/README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "aggregators/aggregator.h"
#include "common/status.h"
#include "data/synthetic.h"
#include "fl/attack_interface.h"
#include "fl/trainer.h"
#include "nn/sequential.h"

namespace perfbench {

/// Privacy budget and per-worker batch (bc) of every workload.
inline constexpr double kEpsilon = 2.0;
inline constexpr int kBatchSize = 16;

enum class ModelKind { kMlp, kCnn, kResidualCnn };

struct Workload {
  std::string name;
  dpbr::data::SyntheticSpec spec;
  ModelKind model = ModelKind::kMlp;
  int num_honest = 0;
  int num_byzantine = 0;
  std::string attack = "none";  ///< a core::MakeAttack name
  int epochs = 1;
  double client_sampling_rate = 1.0;
  /// Evaluation cadence in epochs; above `epochs` evaluates only after
  /// the final round.
  double eval_every_epochs = 1e9;
  /// Checkpoint cadence in rounds; 0 runs without durability.
  int checkpoint_every_n_rounds = 0;
  /// Correctness gate: the lowest acceptable final test accuracy.
  double min_final_accuracy = 0.0;
};

/// Names GetWorkload accepts, in canonical order.
std::vector<std::string> WorkloadNames();

/// The named workload; `smoke` shrinks it to a few rounds on tiny data.
dpbr::Result<Workload> GetWorkload(const std::string& name, bool smoke);

dpbr::nn::ModelFactory ModelFactoryFor(const Workload& w);
/// The dpbr two-stage rule with the experiment driver's defaults.
dpbr::Result<dpbr::agg::AggregatorPtr> MakeDpbrAggregator();
/// Null for attack "none".
dpbr::Result<dpbr::fl::AttackPtr> MakeAttackFor(const Workload& w);

/// Trainer options for `w` under `seed`, without a checkpoint directory.
dpbr::fl::TrainerOptions TrainerOptionsFor(const Workload& w, uint64_t seed);

/// Size of the smallest honest shard: the |D| privacy calibration uses.
size_t MinShard(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
