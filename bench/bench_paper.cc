// The paper's tables and figures, one kExperiments entry each, behind one
// driver:
//
//   bench_paper [--experiment=NAME[,NAME...]|all] [--scale=quick|paper]
//               [--seeds=1,2,3]
//
// --scale=quick (the default) runs seed 1 over coarse grids; paper runs
// the §6.1 grids over seeds 1-3. --seeds replaces the scale's seed list.
// Each entry prints a banner with its paper table or figure and the shape
// the paper reports, then the reproduced rows. The exit status is 1 for a
// malformed flag, an unknown experiment, a failed run, or an entry whose
// own check fails (fig5_noniid_partition's partition skew).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "core/experiment.h"
#include "data/partition.h"
#include "data/registry.h"
#include "stats/summary.h"

namespace dpbr {
namespace {

/// Sweep sizes derived from --scale and --seeds.
struct Scale {
  bool quick = true;
  std::vector<double> eps_grid;       ///< privacy sweep
  std::vector<uint64_t> seeds;        ///< repetition seeds
  std::vector<std::string> datasets;  ///< benchmark subset
  /// The subset for experiments that multiply the worker population
  /// (majority and extreme Byzantine fractions): synth_mnist when quick.
  std::vector<std::string> large_population_datasets;
  std::vector<double> byz_fractions;  ///< Byzantine fractions

  /// The quick or the paper grid of an experiment-specific sweep.
  template <typename T>
  std::vector<T> Pick(std::initializer_list<T> quick_grid,
                      std::initializer_list<T> paper_grid) const {
    return quick ? std::vector<T>(quick_grid) : std::vector<T>(paper_grid);
  }
};

Result<Scale> ParseScale(const Flags& flags) {
  Scale s;
  const std::string scale = flags.GetString("scale", "quick");
  if (scale != "quick" && scale != "paper") {
    return Status::InvalidArgument("--scale must be quick or paper, got '" +
                                   scale + "'");
  }
  s.quick = scale == "quick";
  if (s.quick) {
    s.eps_grid = {0.125, 0.5, 2.0};
    s.seeds = {1};
    s.datasets = {"synth_mnist", "synth_usps"};
    s.large_population_datasets = {"synth_mnist"};
    s.byz_fractions = {0.2, 0.6};
  } else {
    s.eps_grid = {0.125, 0.25, 0.5, 1.0, 2.0};
    s.seeds = {1, 2, 3};
    s.datasets = {"synth_mnist", "synth_colorectal", "synth_fashion",
                  "synth_usps"};
    s.large_population_datasets = s.datasets;
    s.byz_fractions = {0.2, 0.4, 0.6};
  }
  DPBR_ASSIGN_OR_RETURN(std::vector<double> seeds,
                        flags.GetDoubleList("seeds", {}));
  if (seeds.empty()) return s;
  s.seeds.clear();
  for (double v : seeds) {
    // Seeds are exact integers in [0, 2^53): every such double converts
    // to uint64_t without loss, and NaN fails the range test.
    if (!(v >= 0.0 && v < 9007199254740992.0 && v == std::floor(v))) {
      return Status::InvalidArgument("--seeds takes integers in [0, 2^53)");
    }
    s.seeds.push_back(static_cast<uint64_t>(v));
  }
  return s;
}

/// Byzantine worker count m for a target fraction: frac = m/(honest+m).
int ByzCountFor(int num_honest, double fraction) {
  if (fraction <= 0.0) return 0;
  return static_cast<int>(
      std::lround(num_honest * fraction / (1.0 - fraction)));
}

/// Honest-worker default for a dataset (paper §6.1: 20 or 10).
int DefaultHonest(const std::string& dataset) {
  auto info = data::GetBenchmark(dataset);
  if (!info.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    std::exit(1);
  }
  return info.value().default_honest_workers;
}

/// The unattacked cell: the dataset's default honest population at ε,
/// repeated over the scale's seeds.
core::ExperimentConfig Config(const Scale& s, const std::string& dataset,
                              double eps) {
  core::ExperimentConfig c;
  c.dataset = dataset;
  c.epsilon = eps;
  c.num_honest = DefaultHonest(dataset);
  c.seeds = s.seeds;
  return c;
}

/// `c` under dpbr against `attack` at Byzantine fraction `frac`.
core::ExperimentConfig Attacked(core::ExperimentConfig c,
                                const std::string& attack, double frac) {
  c.aggregator = "dpbr";
  c.attack = attack;
  c.num_byzantine = ByzCountFor(c.num_honest, frac);
  return c;
}

/// Runs `config` (or its Reference Accuracy companion), exiting with a
/// readable message on error: the configs are static, so errors are bugs.
core::ExperimentResult MustRun(const core::ExperimentConfig& config,
                               bool reference = false) {
  auto r = reference ? core::RunReference(config)
                     : core::RunExperiment(config);
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n",
                 reference ? "reference" : "experiment",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

/// "0.872 ± 0.004" (σ omitted for single-seed runs).
std::string AccCell(const stats::RunningStats& s) {
  char buf[64];
  if (s.count() <= 1) {
    std::snprintf(buf, sizeof(buf), "%.3f", s.mean());
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f ± %.3f", s.mean(), s.stddev());
  }
  return buf;
}

std::string Acc(const core::ExperimentConfig& c) {
  return AccCell(MustRun(c).accuracy);
}
std::string RefAcc(const core::ExperimentConfig& c) {
  return AccCell(MustRun(c, /*reference=*/true).accuracy);
}

std::string Percent(double frac) {
  return TablePrinter::Num(100 * frac, 0) + "%";
}

bool Ablations(const Scale& s) {
  const core::ExperimentConfig base =
      Attacked(Config(s, "synth_mnist", 2.0), "label_flip", 0.6);
  TablePrinter table({"variant", "attack", "accuracy"});
  for (const char* attack : {"opt_lmp", "gaussian"}) {
    core::ExperimentConfig c = base;
    c.attack = attack;
    table.AddRow({"both stages (default)", attack, Acc(c)});
    c.second_stage = false;
    table.AddRow({"first stage only", attack, Acc(c)});
    c.second_stage = true;
    c.first_stage = false;
    table.AddRow({"second stage only", attack, Acc(c)});
  }
  // Momentum handling is not a pure-utility knob: only reset-to-upload
  // keeps the reported ε; the persist default folds raw gradients into
  // state that outlives their rounds (docs/privacy_accounting.md).
  core::ExperimentConfig c = base;
  c.momentum_reset = fl::MomentumReset::kPersist;
  table.AddRow({"momentum: persist (default)", "label_flip", Acc(c)});
  c.momentum_reset = fl::MomentumReset::kResetToUpload;
  table.AddRow({"momentum: reset-to-upload (paper literal)", "label_flip",
                Acc(c)});
  c = base;
  c.update_scale = core::UpdateScale::kOverSelected;
  table.AddRow({"update scale: 1/|G_s| (default)", "label_flip", Acc(c)});
  c.update_scale = core::UpdateScale::kOverTotal;
  table.AddRow({"update scale: 1/n (paper literal)", "label_flip", Acc(c)});
  table.Print(std::cout);
  return true;
}

bool Fig1LabelflipSweep(const Scale& s) {
  TablePrinter table({"dataset", "byz", "eps", "dpbr", "reference"});
  for (const std::string& dataset : s.datasets) {
    for (double eps : s.eps_grid) {
      core::ExperimentConfig base = Config(s, dataset, eps);
      std::string ref_cell = RefAcc(base);
      for (double frac : s.byz_fractions) {
        table.AddRow({dataset, Percent(frac), TablePrinter::Num(eps, 3),
                      Acc(Attacked(base, "label_flip", frac)), ref_cell});
      }
    }
  }
  table.Print(std::cout);
  return true;
}

bool Fig2MajorityByz(const Scale& s) {
  TablePrinter table({"dataset", "eps", "dpbr @ 90% byz", "reference"});
  for (const std::string& dataset : s.large_population_datasets) {
    for (double eps : s.eps_grid) {
      core::ExperimentConfig base = Config(s, dataset, eps);
      table.AddRow({dataset, TablePrinter::Num(eps, 3),
                    Acc(Attacked(base, "label_flip", 0.9)), RefAcc(base)});
    }
  }
  table.Print(std::cout);
  return true;
}

bool Fig3LrTransfer(const Scale& s) {
  TablePrinter table({"eps", "base_lr", "accuracy"});
  for (double eps : s.Pick({2.0, 0.125}, {2.0, 0.5, 0.125})) {
    core::ExperimentConfig c =
        Attacked(Config(s, "synth_mnist", eps), "label_flip", 0.6);
    double best_acc = -1.0, best_lr = 0.0;
    for (double lr : s.Pick({0.02, 0.08, 0.2, 0.5, 1.0},
                            {0.02, 0.04, 0.08, 0.2, 0.4, 0.8, 1.0})) {
      c.base_lr = lr;
      core::ExperimentResult r = MustRun(c);
      table.AddRow({TablePrinter::Num(eps, 3), TablePrinter::Num(lr, 2),
                    AccCell(r.accuracy)});
      if (r.accuracy.mean() > best_acc) {
        best_acc = r.accuracy.mean();
        best_lr = lr;
      }
    }
    std::printf("eps=%.3f: optimal base_lr = %.2f (acc %.3f)\n", eps,
                best_lr, best_acc);
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check: the optimal base_lr should coincide across eps "
      "levels (paper finds 0.2 for all).\n");
  return true;
}

void PrintCurve(const char* label, const fl::TrainingHistory& h) {
  std::printf("%-24s", label);
  for (const auto& p : h.evals) std::printf(" %5.3f", p.test_accuracy);
  std::printf("\n");
}

bool Fig4Convergence(const Scale& s) {
  for (const std::string& dataset : s.large_population_datasets) {
    core::ExperimentConfig base = Config(s, dataset, 1.0);
    base.seeds = {s.seeds[0]};  // curves come from a single run
    std::printf("[%s] columns = accuracy at epoch 1, 2, ...\n",
                dataset.c_str());
    PrintCurve("reference", MustRun(base, true).histories[0]);
    for (double frac : {0.2, 0.6}) {
      char label[64];
      std::snprintf(label, sizeof(label), "dpbr %d%% byz",
                    static_cast<int>(100 * frac));
      PrintCurve(label,
                 MustRun(Attacked(base, "label_flip", frac)).histories[0]);
    }
    std::printf("\n");
  }
  return true;
}

bool Fig5NoniidPartition(const Scale& /*s*/) {
  auto bundle = data::LoadBenchmark("synth_mnist", 42);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return false;
  }
  const data::Dataset& train = bundle.value().train;
  const size_t kWorkers = 20;
  SplitRng rng(1);
  auto partition = data::PartitionNonIid(
      train.labels(), train.num_classes(), kWorkers, &rng);
  if (!partition.ok()) {
    std::fprintf(stderr, "%s\n", partition.status().ToString().c_str());
    return false;
  }
  std::printf("per-worker class ratios (rows: workers, cols: classes)\n");
  std::vector<double> all_ratios;
  for (size_t w = 0; w < kWorkers; ++w) {
    const auto& shard = partition.value()[w];
    std::vector<size_t> hist(train.num_classes(), 0);
    for (size_t idx : shard) hist[static_cast<size_t>(train.LabelAt(idx))]++;
    std::printf("w%02zu |", w);
    for (size_t c = 0; c < train.num_classes(); ++c) {
      double ratio = static_cast<double>(hist[c]) / shard.size();
      all_ratios.push_back(ratio);
      std::printf(" %.2f", ratio);
    }
    std::printf("\n");
  }
  double spread = stats::StdDev(all_ratios);
  std::printf(
      "\nstd of class ratios across workers = %.3f "
      "(i.i.d. baseline would be ~0.01; >0.05 confirms non-i.i.d.)\n",
      spread);
  return spread > 0.05;
}

bool Fig6ExtremeByz(const Scale& s) {
  // 99% Byzantine means a 100x worker population; quick mode uses a
  // reduced honest population so the run stays minutes-scale.
  core::ExperimentConfig ref = Config(s, "synth_mnist", 2.0);
  if (s.quick) ref.num_honest = 5;
  TablePrinter table({"attack", "byz", "eps", "dpbr", "workers"});
  for (const char* attack :
       s.Pick({"opt_lmp"}, {"label_flip", "gaussian", "opt_lmp"})) {
    for (double frac : {0.95, 0.99}) {
      for (double eps : s.Pick({2.0}, {2.0, 0.5})) {
        core::ExperimentConfig c = Attacked(ref, attack, frac);
        c.epsilon = eps;
        table.AddRow({attack, Percent(frac), TablePrinter::Num(eps, 3),
                      Acc(c), std::to_string(c.num_honest + c.num_byzantine)});
      }
    }
  }
  table.AddRow({"(reference)", "0%", "2.000", RefAcc(ref),
                std::to_string(ref.num_honest)});
  table.Print(std::cout);
  return true;
}

bool Fig18AttackMatrix(const Scale& s) {
  TablePrinter table(
      {"dataset", "attack", "iid", "eps", "dpbr @60% byz", "reference"});
  for (const std::string& dataset : s.large_population_datasets) {
    for (const char* attack : {"gaussian", "opt_lmp"}) {
      for (bool iid : {true, false}) {
        for (double eps : s.Pick({2.0}, {2.0, 0.5, 0.125})) {
          core::ExperimentConfig base = Config(s, dataset, eps);
          base.iid = iid;
          table.AddRow({dataset, attack, iid ? "yes" : "no",
                        TablePrinter::Num(eps, 3),
                        Acc(Attacked(base, attack, 0.6)), RefAcc(base)});
        }
      }
    }
  }
  table.Print(std::cout);
  return true;
}

bool Table2VsDpKrum(const Scale& s) {
  struct Row {
    const char* method;
    const char* aggregator;
    double byz_frac;
  };
  // [30]'s method = standard DP uploads + Krum aggregation; tested at the
  // minority fractions it was designed for. Ours tested at 40% and 60%.
  const Row rows[] = {
      {"dp+krum [30]", "krum", 0.2},
      {"dp+krum [30]", "krum", 0.4},
      {"ours (dpbr)", "dpbr", 0.4},
      {"ours (dpbr)", "dpbr", 0.6},
  };
  const core::ExperimentConfig base = Config(s, "synth_fashion", 2.0);
  TablePrinter table({"method", "byz", "a_little", "inner_product"});
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.method, Percent(row.byz_frac)};
    for (const char* attack : {"a_little", "inner_product"}) {
      core::ExperimentConfig c = Attacked(base, attack, row.byz_frac);
      c.aggregator = row.aggregator;
      cells.push_back(Acc(c));
    }
    table.AddRow(cells);
  }
  std::string ref = RefAcc(base);
  table.AddRow({"reference (no attack)", "0%", ref, ref});
  table.Print(std::cout);
  return true;
}

bool Table3VsSignSgd(const Scale& s) {
  struct Row {
    const char* method;
    const char* aggregator;
    double byz_frac;
    double eps;
  };
  const Row rows[] = {
      {"dp-sign [77]", "sign_sgd", 0.1, 0.25},
      {"dp-sign [77]", "sign_sgd", 0.1, 0.5},
      {"ours (dpbr)", "dpbr", 0.4, 0.125},
      {"ours (dpbr)", "dpbr", 0.6, 0.125},
  };
  TablePrinter table({"method", "byz", "eps", "gaussian_attack"});
  for (const Row& row : rows) {
    core::ExperimentConfig c =
        Attacked(Config(s, "synth_mnist", row.eps), "gaussian", row.byz_frac);
    c.aggregator = row.aggregator;
    table.AddRow({row.method, Percent(row.byz_frac),
                  TablePrinter::Num(row.eps, 3), Acc(c)});
  }
  table.AddRow({"reference (no attack)", "0%", "0.125",
                RefAcc(Config(s, "synth_mnist", 0.125))});
  table.Print(std::cout);
  return true;
}

bool Table4SideEffect(const Scale& s) {
  TablePrinter table({"dataset", "eps", "RA", "zero (60% silent byz)"});
  for (const std::string& dataset : s.datasets) {
    for (double eps : s.eps_grid) {
      core::ExperimentConfig base = Config(s, dataset, eps);
      // The attack is instantiated but never fires (camouflage for the
      // whole run), and the server's conservative belief stands.
      core::ExperimentConfig zero = Attacked(base, "gaussian", 0.6);
      zero.ttbb = 1.0;
      zero.gamma = 0.4;
      table.AddRow(
          {dataset, TablePrinter::Num(eps, 3), RefAcc(base), Acc(zero)});
    }
  }
  table.Print(std::cout);
  return true;
}

bool Table5Adaptive(const Scale& s) {
  TablePrinter table({"attack", "eps", "TTBB", "dpbr accuracy"});
  for (const char* attack :
       s.Pick({"label_flip"}, {"label_flip", "gaussian", "opt_lmp"})) {
    for (double eps : s.Pick({2.0}, {2.0, 0.125})) {
      for (double ttbb : s.Pick({0.0, 0.4, 0.8}, {0.0, 0.2, 0.4, 0.6, 0.8})) {
        core::ExperimentConfig c =
            Attacked(Config(s, "synth_mnist", eps), attack, 0.6);
        c.ttbb = ttbb;
        table.AddRow({attack, TablePrinter::Num(eps, 3),
                      TablePrinter::Num(ttbb, 1), Acc(c)});
      }
    }
  }
  table.Print(std::cout);
  return true;
}

bool Table6GammaAblation(const Scale& s) {
  TablePrinter table({"attack", "iid", "gamma", "dpbr accuracy"});
  for (const char* attack : s.Pick({"label_flip", "opt_lmp"},
                                   {"label_flip", "gaussian", "opt_lmp"})) {
    for (bool iid : s.Pick({true}, {true, false})) {
      for (double gamma : {0.2, 0.35, 0.5, 0.65, 0.8}) {
        // The truth: exactly 50% honest.
        core::ExperimentConfig c =
            Attacked(Config(s, "synth_mnist", 2.0), attack, 0.5);
        c.gamma = gamma;
        c.iid = iid;
        std::string gamma_label = Percent(gamma);
        if (gamma == 0.5) gamma_label += " (exact)";
        table.AddRow({attack, iid ? "yes" : "no", gamma_label, Acc(c)});
      }
    }
  }
  table.Print(std::cout);
  return true;
}

bool Table15DpCost(const Scale& s) {
  std::vector<double> eps_grid = {-1.0};  // non-DP first
  eps_grid.insert(eps_grid.end(), s.eps_grid.begin(), s.eps_grid.end());
  TablePrinter table({"dataset", "iid", "eps", "reference accuracy"});
  for (const std::string& dataset : s.datasets) {
    for (bool iid : s.Pick({true}, {true, false})) {
      for (double eps : eps_grid) {
        core::ExperimentConfig c = Config(s, dataset, eps);
        c.iid = iid;
        table.AddRow({dataset, iid ? "yes" : "no",
                      eps <= 0 ? "non-DP" : TablePrinter::Num(eps, 3),
                      RefAcc(c)});
      }
    }
  }
  table.Print(std::cout);
  return true;
}

bool Table17OodAux(const Scale& s) {
  TablePrinter table(
      {"attack", "byz", "aux = validation (in-dist)", "aux = synth_kmnist"});
  for (const char* attack : {"gaussian", "label_flip", "opt_lmp"}) {
    for (double frac : {0.2, 0.4}) {
      core::ExperimentConfig c =
          Attacked(Config(s, "synth_mnist", 2.0), attack, frac);
      std::string in_dist = Acc(c);
      c.ood_aux_dataset = "synth_kmnist";
      table.AddRow({attack, Percent(frac), in_dist, Acc(c)});
    }
  }
  table.Print(std::cout);
  return true;
}

struct Experiment {
  const char* name;
  const char* paper_ref;
  /// The result the paper reports, in words.
  const char* shape;
  /// Prints the reproduced rows; false when the entry's own check fails.
  bool (*run)(const Scale&);
};

const Experiment kExperiments[] = {
    {"ablations", "design-choice ablations",
     "first stage alone vs second stage alone vs both (paper §4.7); "
     "Algorithm 1 line 11 momentum, reset-to-upload vs persistent per-slot "
     "(the default); update scaling, 1/n vs 1/|G_s|",
     &Ablations},
    {"fig1_labelflip_sweep",
     "Figure 1 (Label-flip, 20-60% Byzantine, accuracy vs eps)",
     "dpbr and the Reference Accuracy align at every eps except the most "
     "extreme privacy levels",
     &Fig1LabelflipSweep},
    {"fig2_majority_byz", "Figure 2 (90% Byzantine label-flip)",
     "dpbr still tracks the Reference Accuracy for eps >= 0.5, with a drop "
     "only at extreme privacy (eps <= 0.25)",
     &Fig2MajorityByz},
    {"fig3_lr_transfer",
     "Figure 3 (base-LR sweep x privacy levels, 60% label-flip)",
     "with the actual rate base_lr * sigma_b / sigma, the optimal base_lr "
     "is the same at every privacy level, so one 1-d sweep tunes all eps",
     &Fig3LrTransfer},
    {"fig4_convergence", "Figure 4 (per-epoch convergence, eps=1)",
     "the dpbr curves at 20% and 60% label-flip track the reference curve "
     "throughout training",
     &Fig4Convergence},
    {"fig5_noniid_partition", "supp. Figure 5 (Algorithm 4 partition skew)",
     "strongly unequal per-class ratios across workers (vs the flat 0.1 of "
     "i.i.d.)",
     &Fig5NoniidPartition},
    {"fig6_extreme_byz", "supp. Figures 6-17 (95% / 99% Byzantine)",
     "at eps = 2 dpbr still tracks the reference; utility erodes as eps "
     "shrinks",
     &Fig6ExtremeByz},
    {"fig18_attack_matrix",
     "supp. Figures 18-32 (attack x data-distribution matrix)",
     "dpbr tracks the reference under Gaussian and OptLMP at 60% Byzantine; "
     "non-i.i.d. data costs dpbr and the reference a little alike",
     &Fig18AttackMatrix},
    {"table2_vs_dpkrum", "Table 2 (comparison with [30] on Fashion)",
     "DP+Krum degrades under both attacks even with a Byzantine minority; "
     "dpbr stays at the reference level with a Byzantine majority",
     &Table2VsDpKrum},
    {"table3_vs_signsgd", "Table 3 (comparison with [77] on MNIST)",
     "DP sign-SGD keeps some signal only at small Byzantine fractions and "
     "low privacy; dpbr holds the reference level at eps = 0.125 with a "
     "60% Byzantine majority",
     &Table3VsSignSgd},
    {"table4_side_effect", "Table 4 (zero-attacker side-effect)",
     "60% declared-Byzantine workers that never attack, with the server's "
     "gamma = 0.4 belief, match the Reference Accuracy at every eps",
     &Table4SideEffect},
    {"table5_adaptive", "Table 5 / Figures 33-38 (TTBB sweep, 60% byz)",
     "accuracy is flat in TTBB: cumulative second-stage scores make late "
     "defection pointless",
     &Table5Adaptive},
    {"table6_gamma_ablation",
     "Table 6 / supp. Tables 10-14 (belief vs truth)",
     "at 50% honest, beliefs gamma <= truth keep robustness; gamma > truth "
     "aggregates Byzantine uploads and utility drops, most under OptLMP",
     &Table6GammaAblation},
    {"table15_dp_cost", "supp. Tables 15-16 (DP side-effect vs non-DP)",
     "with no attack and no defense, accuracy falls monotonically as eps "
     "shrinks, to a visible drop at eps = 0.125, i.i.d. or not",
     &Table15DpCost},
    {"table17_ood_aux",
     "supp. Table 17 (out-of-distribution auxiliary data)",
     "auxiliary data from another data space costs the second stage its "
     "reference direction: label-flip drops to (or below) chance while "
     "in-distribution aux matches the reference; Gaussian hurts less",
     &Table17OodAux},
};

/// The entries named by --experiment (comma-separated names, or all).
Result<std::vector<const Experiment*>> SelectExperiments(
    const std::string& names) {
  std::vector<const Experiment*> selected;
  if (names == "all") {
    for (const Experiment& e : kExperiments) selected.push_back(&e);
    return selected;
  }
  size_t begin = 0;
  while (begin <= names.size()) {
    size_t end = names.find(',', begin);
    if (end == std::string::npos) end = names.size();
    const std::string name = names.substr(begin, end - begin);
    const Experiment* match = nullptr;
    for (const Experiment& e : kExperiments) {
      if (name == e.name) match = &e;
    }
    if (match == nullptr) {
      return Status::InvalidArgument("--experiment: unknown experiment '" +
                                     name + "'");
    }
    selected.push_back(match);
    begin = end + 1;
  }
  return selected;
}

}  // namespace
}  // namespace dpbr

int main(int argc, char** argv) {
  using namespace dpbr;
  Flags flags = Flags::Parse(argc, argv);
  Result<Scale> scale = ParseScale(flags);
  Result<std::vector<const Experiment*>> selected =
      SelectExperiments(flags.GetString("experiment", "all"));
  Status status = !scale.ok() ? scale.status() : selected.status();
  if (status.ok() && !flags.positional().empty()) {
    status = Status::InvalidArgument("unexpected argument '" +
                                     flags.positional()[0] + "'");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  bool ok = true;
  for (size_t i = 0; i < selected.value().size(); ++i) {
    const Experiment* e = selected.value()[i];
    if (i > 0) std::printf("\n");
    std::printf("== %s — reproduces %s ==\nexpected: %s\n", e->name,
                e->paper_ref, e->shape);
    std::printf("scale=%s (use --scale=paper for the full grid)\n\n",
                scale.value().quick ? "quick" : "paper");
    ok = e->run(scale.value()) && ok;
  }
  return ok ? 0 : 1;
}
