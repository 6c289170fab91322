// Paper Table 5 (+ supp. Figures 33-38, CLAIM 7): the adaptive attack.
// Byzantine workers camouflage as honest until TTBB·T rounds, then turn
// hostile. Expected shape: accuracy is flat in TTBB — the cumulative
// second-stage scores make late defection pointless.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"

using namespace dpbr;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  benchutil::Scale scale = benchutil::GetScale(flags);
  Result<bool> all_attacks_flag =
      flags.GetBoolOrStatus("all-attacks", !scale.quick);
  if (!all_attacks_flag.ok()) {
    std::cerr << all_attacks_flag.status().ToString() << "\n";
    return 1;
  }
  const bool all_attacks = all_attacks_flag.value();
  benchutil::PrintBanner("bench_table5_adaptive",
                         "Table 5 / Figures 33-38 (TTBB sweep, 60% byz)",
                         scale);

  const std::string dataset = "synth_mnist";
  const int honest = benchutil::DefaultHonest(dataset);
  std::vector<double> ttbbs = scale.quick
                                  ? std::vector<double>{0.0, 0.4, 0.8}
                                  : std::vector<double>{0.0, 0.2, 0.4, 0.6,
                                                        0.8};
  std::vector<std::string> attacks =
      all_attacks
          ? std::vector<std::string>{"label_flip", "gaussian", "opt_lmp"}
          : std::vector<std::string>{"label_flip"};
  std::vector<double> eps_levels =
      scale.quick ? std::vector<double>{2.0} : std::vector<double>{2.0,
                                                                   0.125};

  TablePrinter table({"attack", "eps", "TTBB", "dpbr accuracy"});
  for (const std::string& attack : attacks) {
    for (double eps : eps_levels) {
      for (double ttbb : ttbbs) {
        core::ExperimentConfig c;
        c.dataset = dataset;
        c.epsilon = eps;
        c.num_honest = honest;
        c.num_byzantine = benchutil::ByzCountFor(honest, 0.6);
        c.attack = attack;
        c.ttbb = ttbb;
        c.aggregator = "dpbr";
        c.seeds = scale.seeds;
        table.AddRow({attack, TablePrinter::Num(eps, 3),
                      TablePrinter::Num(ttbb, 1),
                      benchutil::AccCell(benchutil::MustRun(c).accuracy)});
      }
    }
  }
  table.Print(std::cout);
  return 0;
}
