// Design-choice ablations:
//   1. first stage alone vs second stage alone vs both (paper §4.7);
//   2. Algorithm 1 line 11 momentum handling: literal reset-to-upload vs
//      persistent per-slot momentum (the default; see
//      fl::WorkerOptions::momentum_reset);
//   3. update scaling: paper's 1/n vs the 1/|G_s| reparameterization.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"

using namespace dpbr;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  benchutil::Scale scale = benchutil::GetScale(flags);
  benchutil::PrintBanner("bench_ablations", "design-choice ablations", scale);

  const std::string dataset = "synth_mnist";
  const int honest = benchutil::DefaultHonest(dataset);

  core::ExperimentConfig base;
  base.dataset = dataset;
  base.epsilon = 2.0;
  base.num_honest = honest;
  base.num_byzantine = benchutil::ByzCountFor(honest, 0.6);
  base.aggregator = "dpbr";
  base.seeds = scale.seeds;

  TablePrinter table({"variant", "attack", "accuracy"});
  std::vector<std::string> attacks = {"opt_lmp", "gaussian"};

  for (const std::string& attack : attacks) {
    // 1. Stage ablation.
    core::ExperimentConfig c = base;
    c.attack = attack;
    table.AddRow({"both stages (default)", attack,
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
    c = base;
    c.attack = attack;
    c.second_stage = false;
    table.AddRow({"first stage only", attack,
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
    c = base;
    c.attack = attack;
    c.first_stage = false;
    table.AddRow({"second stage only", attack,
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
  }

  // 2. Momentum handling. Not a pure-utility knob: only reset-to-upload
  // keeps the reported ε; the persist default folds raw gradients into
  // state that outlives their rounds (docs/privacy_accounting.md).
  {
    core::ExperimentConfig c = base;
    c.attack = "label_flip";
    c.momentum_reset = fl::MomentumReset::kPersist;
    table.AddRow({"momentum: persist (default)", "label_flip",
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
    c.momentum_reset = fl::MomentumReset::kResetToUpload;
    table.AddRow({"momentum: reset-to-upload (paper literal)", "label_flip",
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
  }

  // 3. Update scaling.
  {
    core::ExperimentConfig c = base;
    c.attack = "label_flip";
    c.update_scale = core::UpdateScale::kOverSelected;
    table.AddRow({"update scale: 1/|G_s| (default)", "label_flip",
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
    c.update_scale = core::UpdateScale::kOverTotal;
    table.AddRow({"update scale: 1/n (paper literal)", "label_flip",
                  benchutil::AccCell(benchutil::MustRun(c).accuracy)});
  }

  table.Print(std::cout);
  return 0;
}
