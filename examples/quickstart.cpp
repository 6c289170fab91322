// Quickstart: train a differentially private, Byzantine-resilient
// federated model on a synthetic MNIST-like benchmark.
//
//   ./quickstart [--dataset=synth_mnist] [--eps=1] [--byz_frac=0.6]
//                [--attack=label_flip] [--seed=1] [--epochs=8]
//                [--checkpoint_dir=DIR] [--checkpoint_every=N]
//
// The run prints the privacy calibration, the per-epoch accuracy of the
// dpbr protocol, and the Reference Accuracy (DP + plain averaging, no
// attack) the paper compares against.
//
// With --checkpoint_dir the run is durable: every round appends a WAL
// commit record, every N rounds a full snapshot is written, and Ctrl-C /
// SIGTERM stops gracefully after the round in flight (partial history,
// final checkpoint). Re-running the same command resumes where it
// stopped and finishes with output bit-identical to an uninterrupted
// run. See docs/durability.md.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "core/experiment.h"
#include "data/registry.h"
#include "strict_flags.h"

int main(int argc, char** argv) {
  using dpbr::core::ExperimentConfig;
  using dpbr::core::ExperimentResult;
  using dpbr::examples::DoubleFlag;
  using dpbr::examples::IntFlag;

  dpbr::Flags flags = dpbr::Flags::Parse(argc, argv);
  ExperimentConfig config;
  config.dataset = flags.GetString("dataset", "synth_mnist");
  config.epsilon = DoubleFlag(flags, "eps", 1.0);
  config.attack = flags.GetString("attack", "label_flip");
  config.epochs = IntFlag(flags, "epochs", -1);
  config.seeds = {
      static_cast<uint64_t>(dpbr::examples::Int64Flag(flags, "seed", 1))};
  config.checkpoint_dir = flags.GetString("checkpoint_dir", "");
  config.checkpoint_every_n_rounds = IntFlag(flags, "checkpoint_every", 1);

  double byz_frac = DoubleFlag(flags, "byz_frac", 0.6);
  // The paper fixes the honest population and injects Byzantine workers:
  // byz_frac = m / (honest + m)  =>  m = honest * byz_frac / (1-byz_frac).
  auto info = dpbr::data::GetBenchmark(config.dataset);
  if (!info.ok()) {
    std::cerr << info.status().ToString() << "\n";
    return 1;
  }
  int honest = info.value().default_honest_workers;
  config.num_honest = honest;
  config.num_byzantine = static_cast<int>(
      std::lround(honest * byz_frac / (1.0 - byz_frac)));

  std::printf("dataset=%s  eps=%.3f  honest=%d  byzantine=%d  attack=%s\n",
              config.dataset.c_str(), config.epsilon, config.num_honest,
              config.num_byzantine, config.attack.c_str());

  auto result = dpbr::core::RunExperiment(config);
  if (!result.ok()) {
    std::cerr << "run failed: " << result.status().ToString() << "\n";
    return 1;
  }
  const ExperimentResult& r = result.value();
  std::printf("calibrated sigma=%.4f  lr=%.4f  rounds=%d\n", r.sigma,
              r.learning_rate, r.histories[0].total_rounds);
  std::printf("epoch curve (dpbr under %s, %d%% byzantine):\n",
              config.attack.c_str(),
              static_cast<int>(std::lround(100 * byz_frac)));
  for (const auto& p : r.histories[0].evals) {
    std::printf("  epoch %5.1f  accuracy %.3f\n", p.epoch, p.test_accuracy);
  }

  auto ref = dpbr::core::RunReference(config);
  if (!ref.ok()) {
    std::cerr << "reference failed: " << ref.status().ToString() << "\n";
    return 1;
  }
  std::printf("final: dpbr=%.3f   reference (no attack, no defense)=%.3f\n",
              r.accuracy.mean(), ref.value().accuracy.mean());
  return 0;
}
