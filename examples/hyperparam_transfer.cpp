// Hyper-parameter transfer (paper CLAIM 6): tune the learning rate ONCE
// at a base privacy level, then reuse η = η_b·σ_b/σ everywhere. This
// example calibrates σ across a privacy sweep, prints the transferred
// rates, and verifies the η·σ invariant numerically.
//
//   ./hyperparam_transfer [--base_lr=0.2] [--base_eps=2]

#include <cstdio>
#include <iostream>

#include "common/flags.h"
#include "common/table_printer.h"
#include "dp/privacy_params.h"
#include "strict_flags.h"

namespace {

int Fail(const dpbr::Status& status) {
  std::cerr << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using dpbr::examples::DoubleFlag;
  dpbr::Flags flags = dpbr::Flags::Parse(argc, argv);
  double base_lr = DoubleFlag(flags, "base_lr", 0.2);
  double base_eps = DoubleFlag(flags, "base_eps", 2.0);

  // Data configuration of the default synth_mnist experiment:
  // |D| = 1000 per worker, bc = 16, 8 epochs.
  dpbr::dp::PrivacySpec spec;
  spec.dataset_size = 1000;
  spec.batch_size = 16;
  spec.epochs = 8;

  // The anchor: sigma_b at --base_eps (a non-positive one calibrates no
  // noise). Transferring to the anchor itself rejects a non-positive
  // --base_lr before anything is printed.
  if (base_eps <= 0.0) {
    return Fail(dpbr::Status::InvalidArgument("base_epsilon must be > 0"));
  }
  spec.epsilon = base_eps;
  auto base = dpbr::dp::CalibratePrivacy(spec);
  if (!base.ok()) return Fail(base.status());
  const double sigma_b = base.value().sigma;
  auto anchor = dpbr::dp::TransferLearningRate(base_lr, sigma_b, sigma_b);
  if (!anchor.ok()) return Fail(anchor.status());
  std::printf("base: eps=%.3f  lr=%.3f  sigma_b=%.4f\n\n", base_eps, base_lr,
              sigma_b);

  dpbr::TablePrinter table({"eps", "sigma", "transferred lr", "lr*sigma"});
  for (double eps : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    spec.epsilon = eps;
    auto params = dpbr::dp::CalibratePrivacy(spec);
    if (!params.ok()) return Fail(params.status());
    double lr = dpbr::dp::TransferLearningRate(base_lr, sigma_b,
                                               params.value().sigma)
                    .value();
    table.AddRow({dpbr::TablePrinter::Num(eps, 3),
                  dpbr::TablePrinter::Num(params.value().sigma, 4),
                  dpbr::TablePrinter::Num(lr, 4),
                  dpbr::TablePrinter::Num(lr * params.value().sigma, 4)});
  }
  table.Print(std::cout);
  std::printf(
      "\nThe lr*sigma column is constant: one tuning sweep serves every "
      "privacy level (quadratic -> linear tuning cost).\n");
  return 0;
}
