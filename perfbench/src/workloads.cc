#include "workloads.h"

#include <algorithm>

#include "core/experiment.h"
#include "nn/model_zoo.h"

namespace perfbench {
namespace {

dpbr::data::SyntheticSpec Spec(size_t classes, size_t side, bool image,
                               size_t train, double separation,
                               double label_noise, uint64_t space_seed) {
  dpbr::data::SyntheticSpec s;
  s.num_classes = classes;
  s.feature_dim = side * side;
  if (image) {
    s.image_h = side;
    s.image_w = side;
  }
  s.train_size = train;
  s.val_size = 200;
  s.test_size = 500;
  s.class_separation = separation;
  s.noise_std = 1.0;
  s.label_noise = label_noise;
  s.data_space_seed = space_seed;
  return s;
}

// The paper's MNIST CNN (16 channels, k=5, d=21802) with 8 honest workers
// at full participation: the DP-SGD local step is nearly the whole round,
// so this isolates nn and the worker. A cohort of twice the 4-thread pool
// keeps every thread busy. Inputs are 1x16x16 rather than MNIST's 28x28
// (d is unchanged: the network pools to 4x4) so that 104 rounds — 8 epochs
// of 208-example shards at bc=16 — fit a ~10 s run. Class separation 6
// puts final accuracy near 0.9, where it varies little across seeds.
Workload CnnHonest() {
  Workload w;
  w.name = "cnn_honest";
  w.spec = Spec(10, 16, /*image=*/true, 8 * 208, 6.0, 0.02, 11);
  w.model = ModelKind::kCnn;
  w.num_honest = 8;
  w.epochs = 8;
  w.min_final_accuracy = 0.6;
  return w;
}

// The paper's MLP (784->32->10, d=25450) with 5 honest and 45 Byzantine
// workers running "a little is enough": the 90% headline at half the
// paper's population, so a round stays near 50 ms. Aggregation (the
// first-stage KS test over 50 x 25450 uploads) is ~90% of the round and
// local steps are cheap, so an nn change should not move it. At the
// registry's class separation (3.5) the MLP stays near chance; at 20 it
// reaches ~0.9, so final_acc guards the protocol's outcome.
Workload MlpByz90() {
  Workload w;
  w.name = "mlp_byz90";
  w.spec = Spec(10, 28, /*image=*/false, 5 * 208, 20.0, 0.02, 12);
  w.model = ModelKind::kMlp;
  w.num_honest = 5;
  w.num_byzantine = 45;
  w.attack = "a_little";
  w.epochs = 8;
  w.min_final_accuracy = 0.6;
  return w;
}

// The residual CNN (1x16x16, d=21802) over 50 clients with Poisson
// participation q_c=0.07: the expected cohort (3.5) is below the 4-thread
// pool, so threads idle; about a quarter of the rounds draw 5 or more
// clients and need a second wave, which puts p90 inside that mode rather
// than on its edge. The run is durable and evaluates; checkpoints and
// evaluations share a 40-round cadence, so they touch 3 of the 120 rounds
// and never set p50 or p90. It exercises the small-cohort regime, the
// checkpoint write path and forward-only evaluation, which the other two
// workloads bypass. Rounds with an empty cohort (about one in 30) aggregate
// nothing and give no round sample: 120 rounds leave ~115 samples, well
// clear of the gate's 100 on every seed.
Workload ResCnnSampled() {
  Workload w;
  w.name = "rescnn_sampled";
  w.spec = Spec(8, 16, /*image=*/true, 50 * 67, 6.0, 0.05, 14);
  w.model = ModelKind::kResidualCnn;
  w.num_honest = 50;
  w.client_sampling_rate = 0.07;
  w.epochs = 2;
  w.eval_every_epochs = 2.0 / 3.0;
  w.checkpoint_every_n_rounds = 40;
  w.min_final_accuracy = 0.5;
  return w;
}

// A few rounds on tiny data, for the benchmark's own tests: same model,
// protocol and code paths, no accuracy floor.
Workload Shrink(Workload w) {
  int honest = w.client_sampling_rate < 1.0 ? 10 : 4;
  w.spec.train_size = static_cast<size_t>(honest) * 32;
  w.spec.test_size = 64;
  w.num_honest = honest;
  w.num_byzantine = std::min(w.num_byzantine, 6);
  if (w.client_sampling_rate < 1.0) {
    w.client_sampling_rate = 0.5;
    w.epochs = 1;
    w.eval_every_epochs = 0.5;
    w.checkpoint_every_n_rounds = 2;
  } else {
    w.epochs = 2;
  }
  w.min_final_accuracy = 0.0;
  return w;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"cnn_honest", "mlp_byz90", "rescnn_sampled"};
}

dpbr::Result<Workload> GetWorkload(const std::string& name, bool smoke) {
  Workload w;
  if (name == "cnn_honest") {
    w = CnnHonest();
  } else if (name == "mlp_byz90") {
    w = MlpByz90();
  } else if (name == "rescnn_sampled") {
    w = ResCnnSampled();
  } else {
    return dpbr::Status::NotFound("unknown workload: " + name);
  }
  return smoke ? Shrink(std::move(w)) : w;
}

dpbr::nn::ModelFactory ModelFactoryFor(const Workload& w) {
  const size_t classes = w.spec.num_classes;
  switch (w.model) {
    case ModelKind::kCnn:
      return dpbr::nn::CnnFactory(1, 16, 5, classes);
    case ModelKind::kResidualCnn:
      return dpbr::nn::ResidualCnnFactory(1, 16, 5, classes);
    case ModelKind::kMlp:
      break;
  }
  return dpbr::nn::MlpFactory(w.spec.feature_dim, 32, classes);
}

dpbr::Result<dpbr::agg::AggregatorPtr> MakeDpbrAggregator() {
  dpbr::core::ExperimentConfig config;
  config.aggregator = "dpbr";
  return dpbr::core::MakeAggregator(config);
}

dpbr::Result<dpbr::fl::AttackPtr> MakeAttackFor(const Workload& w) {
  dpbr::core::ExperimentConfig config;
  config.attack = w.attack;
  return dpbr::core::MakeAttack(config);
}

dpbr::fl::TrainerOptions TrainerOptionsFor(const Workload& w, uint64_t seed) {
  // Protocol knobs not set here keep the experiment driver's defaults
  // (core::ExperimentConfig), including persistent per-slot momentum.
  dpbr::core::ExperimentConfig defaults;
  dpbr::fl::TrainerOptions o;
  o.num_honest = w.num_honest;
  o.num_byzantine = w.num_byzantine;
  o.epsilon = kEpsilon;
  o.batch_size = kBatchSize;
  o.beta = defaults.beta;
  o.epochs = w.epochs;
  o.momentum_reset = defaults.momentum_reset;
  o.base_lr = defaults.base_lr;
  o.transfer_base_epsilon = defaults.transfer_base_epsilon;
  o.client_sampling_rate = w.client_sampling_rate;
  o.aux_per_class = defaults.aux_per_class;
  o.seed = seed;
  o.eval_every_epochs = w.eval_every_epochs;
  o.checkpoint_every_n_rounds = std::max(1, w.checkpoint_every_n_rounds);
  return o;
}

size_t MinShard(const Workload& w) {
  return w.spec.train_size / static_cast<size_t>(w.num_honest);
}

}  // namespace perfbench
