#include "core/experiment.h"

#include <memory>

#include "aggregators/fltrust.h"
#include "aggregators/krum.h"
#include "aggregators/mean.h"
#include "aggregators/median.h"
#include "aggregators/norm_bound.h"
#include "aggregators/rfa.h"
#include "aggregators/sign_sgd.h"
#include "aggregators/trimmed_mean.h"
#include "attacks/a_little.h"
#include "attacks/adaptive.h"
#include "attacks/gaussian_attack.h"
#include "attacks/inner_product.h"
#include "attacks/label_flip.h"
#include "attacks/opt_lmp.h"
#include "core/dpbr_aggregator.h"
#include "data/registry.h"
#include "fl/trainer.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace core {

Result<fl::AttackPtr> MakeAttack(const ExperimentConfig& config) {
  fl::AttackPtr attack;
  const std::string& name = config.attack;
  if (name == "none" || name.empty()) {
    attack = nullptr;
  } else if (name == "gaussian") {
    attack = std::make_unique<attacks::GaussianAttack>();
  } else if (name == "label_flip") {
    attack = std::make_unique<attacks::LabelFlipAttack>();
  } else if (name == "opt_lmp") {
    attack = std::make_unique<attacks::OptLmpAttack>();
  } else if (name == "a_little") {
    attack = std::make_unique<attacks::ALittleAttack>();
  } else if (name == "inner_product") {
    attack = std::make_unique<attacks::InnerProductAttack>();
  } else {
    return Status::NotFound("unknown attack: " + name);
  }
  if (config.ttbb >= 0.0) {
    if (attack == nullptr) {
      return Status::InvalidArgument("ttbb requires a concrete attack");
    }
    if (config.ttbb > 1.0) {
      return Status::InvalidArgument("ttbb must lie in [0, 1]");
    }
    attack = std::make_unique<attacks::AdaptiveAttack>(std::move(attack),
                                                       config.ttbb);
  }
  return attack;
}

Result<agg::AggregatorPtr> MakeAggregator(const ExperimentConfig& config) {
  const std::string& name = config.aggregator;
  if (name == "dpbr") {
    ProtocolOptions opts;
    opts.enable_first_stage = config.first_stage;
    opts.enable_second_stage = config.second_stage;
    opts.update_scale = config.update_scale;
    DPBR_RETURN_NOT_OK(ValidateProtocolOptions(opts));
    return agg::AggregatorPtr(std::make_unique<DpbrAggregator>(opts));
  }
  if (name == "mean") {
    return agg::AggregatorPtr(std::make_unique<agg::MeanAggregator>());
  }
  if (name == "krum") {
    return agg::AggregatorPtr(std::make_unique<agg::KrumAggregator>());
  }
  if (name == "multi_krum") {
    return agg::AggregatorPtr(std::make_unique<agg::KrumAggregator>(4));
  }
  if (name == "coordinate_median") {
    return agg::AggregatorPtr(
        std::make_unique<agg::CoordinateMedianAggregator>());
  }
  if (name == "trimmed_mean") {
    return agg::AggregatorPtr(std::make_unique<agg::TrimmedMeanAggregator>());
  }
  if (name == "rfa") {
    return agg::AggregatorPtr(std::make_unique<agg::RfaAggregator>());
  }
  if (name == "fltrust") {
    return agg::AggregatorPtr(std::make_unique<agg::FlTrustAggregator>());
  }
  if (name == "sign_sgd") {
    return agg::AggregatorPtr(std::make_unique<agg::SignSgdAggregator>());
  }
  if (name == "norm_bound") {
    return agg::AggregatorPtr(std::make_unique<agg::NormBoundAggregator>());
  }
  return Status::NotFound("unknown aggregator: " + name);
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  DPBR_ASSIGN_OR_RETURN(data::BenchmarkInfo info,
                        data::GetBenchmark(config.dataset));
  DPBR_ASSIGN_OR_RETURN(data::DatasetBundle bundle,
                        data::GenerateSynthetic(info.spec, kDataSeed));

  // Optional out-of-distribution auxiliary source (supp. Table 17).
  std::unique_ptr<data::DatasetBundle> ood_bundle;
  if (!config.ood_aux_dataset.empty()) {
    DPBR_ASSIGN_OR_RETURN(data::BenchmarkInfo ood_info,
                          data::GetBenchmark(config.ood_aux_dataset));
    if (ood_info.spec.num_classes < info.spec.num_classes ||
        ood_info.spec.feature_dim != info.spec.feature_dim) {
      return Status::InvalidArgument(
          "OOD auxiliary dataset must cover the task's classes and match "
          "its feature dimension");
    }
    DPBR_ASSIGN_OR_RETURN(
        data::DatasetBundle b,
        data::GenerateSynthetic(ood_info.spec, kDataSeed + 1));
    ood_bundle = std::make_unique<data::DatasetBundle>(std::move(b));
  }

  nn::ModelFactory factory = nn::MlpFactory(
      info.spec.feature_dim, kMlpHidden, info.spec.num_classes);

  ExperimentResult result;
  if (config.seeds.empty()) {
    return Status::InvalidArgument("need at least one seed");
  }
  for (uint64_t seed : config.seeds) {
    DPBR_ASSIGN_OR_RETURN(fl::AttackPtr attack, MakeAttack(config));
    DPBR_ASSIGN_OR_RETURN(agg::AggregatorPtr aggregator,
                          MakeAggregator(config));

    fl::TrainerOptions topts;
    topts.num_honest = config.num_honest > 0 ? config.num_honest
                                             : info.default_honest_workers;
    topts.num_byzantine = config.num_byzantine;
    topts.epsilon = config.epsilon;
    topts.batch_size = config.batch_size;
    topts.beta = config.beta;
    topts.epochs = config.epochs > 0 ? config.epochs : info.default_epochs;
    topts.momentum_reset = config.momentum_reset;
    topts.base_lr = config.base_lr;
    topts.transfer_base_epsilon = config.transfer_base_epsilon;
    topts.gamma = config.gamma;
    topts.iid = config.iid;
    topts.aux_per_class = config.aux_per_class;
    topts.seed = seed;
    if (!config.checkpoint_dir.empty()) {
      topts.checkpoint_dir =
          config.checkpoint_dir + "/seed" + std::to_string(seed);
      topts.checkpoint_every_n_rounds = config.checkpoint_every_n_rounds;
    }
    if (ood_bundle != nullptr) {
      topts.aux_source_override = &ood_bundle->val;
    }

    fl::FederatedTrainer trainer(&bundle, factory, std::move(aggregator),
                                 std::move(attack), topts);
    DPBR_ASSIGN_OR_RETURN(fl::TrainingHistory history, trainer.Run());
    result.accuracy.Add(history.final_accuracy);
    if (result.histories.empty()) {
      result.sigma = history.sigma;
      result.learning_rate = history.learning_rate;
    }
    result.histories.push_back(std::move(history));
  }
  return result;
}

Result<ExperimentResult> RunReference(ExperimentConfig config) {
  config.num_byzantine = 0;
  config.attack = "none";
  config.aggregator = "mean";
  config.gamma = -1.0;
  config.ood_aux_dataset.clear();
  // The reference is a different experiment (different fingerprint), so
  // it must not share the main run's snapshots: durable sweeps give it
  // its own subtree.
  if (!config.checkpoint_dir.empty()) config.checkpoint_dir += "/reference";
  return RunExperiment(config);
}

}  // namespace core
}  // namespace dpbr
