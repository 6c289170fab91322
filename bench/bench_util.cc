#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "data/registry.h"

namespace dpbr {
namespace benchutil {

Scale GetScale(const Flags& flags) {
  Scale s;
  s.quick = flags.GetString("scale", "quick") != "paper";
  if (s.quick) {
    s.eps_grid = {0.125, 0.5, 2.0};
    s.seeds = {1};
    s.datasets = {"synth_mnist", "synth_usps"};
    s.byz_fractions = {0.2, 0.6};
  } else {
    s.eps_grid = {0.125, 0.25, 0.5, 1.0, 2.0};
    s.seeds = {1, 2, 3};
    s.datasets = {"synth_mnist", "synth_colorectal", "synth_fashion",
                  "synth_usps"};
    s.byz_fractions = {0.2, 0.4, 0.6};
  }
  Result<std::vector<double>> seed_override =
      flags.GetDoubleList("seeds", {});
  if (!seed_override.ok()) {
    std::fprintf(stderr, "%s\n", seed_override.status().ToString().c_str());
    std::exit(1);
  }
  if (!seed_override.value().empty()) {
    s.seeds.clear();
    for (double v : seed_override.value()) {
      s.seeds.push_back(static_cast<uint64_t>(v));
    }
  }
  return s;
}

int ByzCountFor(int num_honest, double fraction) {
  if (fraction <= 0.0) return 0;
  return static_cast<int>(
      std::lround(num_honest * fraction / (1.0 - fraction)));
}

std::string AccCell(const stats::RunningStats& s) {
  char buf[64];
  if (s.count() <= 1) {
    std::snprintf(buf, sizeof(buf), "%.3f", s.mean());
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f ± %.3f", s.mean(), s.stddev());
  }
  return buf;
}

void PrintBanner(const std::string& binary, const std::string& paper_ref,
                 const Scale& scale) {
  std::printf("== %s — reproduces %s ==\n", binary.c_str(),
              paper_ref.c_str());
  std::printf("scale=%s (use --scale=paper for the full grid)\n\n",
              scale.quick ? "quick" : "paper");
}

core::ExperimentResult MustRun(const core::ExperimentConfig& config) {
  auto r = core::RunExperiment(config);
  if (!r.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

core::ExperimentResult MustRunReference(
    const core::ExperimentConfig& config) {
  auto r = core::RunReference(config);
  if (!r.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

int DefaultHonest(const std::string& dataset) {
  auto info = data::GetBenchmark(dataset);
  if (!info.ok()) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    std::exit(1);
  }
  return info.value().default_honest_workers;
}

}  // namespace benchutil
}  // namespace dpbr
