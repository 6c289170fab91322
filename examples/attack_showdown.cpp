// Attack showdown: one table comparing every aggregation rule under a
// chosen Byzantine attack — the scenario that motivates the paper's
// Table 1. With a Byzantine majority every classical rule collapses and
// only the dpbr two-stage protocol tracks the reference.
//
//   ./attack_showdown [--attack=opt_lmp] [--byz_frac=0.6] [--eps=2]

#include <cmath>
#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/table_printer.h"
#include "core/experiment.h"
#include "data/registry.h"
#include "strict_flags.h"

int main(int argc, char** argv) {
  using dpbr::core::ExperimentConfig;
  using dpbr::examples::DoubleFlag;
  dpbr::Flags flags = dpbr::Flags::Parse(argc, argv);

  ExperimentConfig base;
  base.dataset = flags.GetString("dataset", "synth_mnist");
  base.epsilon = DoubleFlag(flags, "eps", 2.0);
  base.attack = flags.GetString("attack", "opt_lmp");
  base.seeds = {1};
  double byz_frac = DoubleFlag(flags, "byz_frac", 0.6);
  auto info = dpbr::data::GetBenchmark(base.dataset);
  if (!info.ok()) {
    std::cerr << info.status().ToString() << "\n";
    return 1;
  }
  base.num_honest = info.value().default_honest_workers;
  base.num_byzantine = static_cast<int>(
      std::lround(base.num_honest * byz_frac / (1.0 - byz_frac)));

  std::printf("attack=%s  byz=%.0f%%  eps=%.3f  dataset=%s\n\n",
              base.attack.c_str(), 100 * byz_frac, base.epsilon,
              base.dataset.c_str());

  dpbr::TablePrinter table({"aggregation rule", "final accuracy"});
  auto ref = dpbr::core::RunReference(base);
  if (!ref.ok()) {
    std::cerr << ref.status().ToString() << "\n";
    return 1;
  }
  table.AddRow({"(reference: no attack, mean)",
                dpbr::TablePrinter::Num(ref.value().accuracy.mean())});

  for (const char* rule : {"dpbr", "mean", "krum", "coordinate_median",
                           "trimmed_mean", "rfa", "fltrust"}) {
    ExperimentConfig c = base;
    c.aggregator = rule;
    auto r = dpbr::core::RunExperiment(c);
    if (!r.ok()) {
      std::cerr << rule << ": " << r.status().ToString() << "\n";
      continue;
    }
    table.AddRow({rule, dpbr::TablePrinter::Num(r.value().accuracy.mean())});
  }
  table.Print(std::cout);
  return 0;
}
