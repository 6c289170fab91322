// Named synthetic benchmarks mirroring the paper's datasets.
//
//   synth_mnist       ← MNIST      (10 classes, easy, 20 honest workers)
//   synth_fashion     ← Fashion    (10 classes, moderate)
//   synth_usps        ← USPS       (10 classes, small)
//   synth_colorectal  ← Colorectal (8 classes, tiny → high variance)
//   synth_kmnist      ← KMNIST     (distinct data space; OOD auxiliary
//                                   data for supp. Table 17)
//
// Relative sizes and difficulty ordering follow the paper.

#ifndef DPBR_DATA_REGISTRY_H_
#define DPBR_DATA_REGISTRY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/synthetic.h"

namespace dpbr {
namespace data {

/// Registry entry: generator spec plus experiment defaults.
struct BenchmarkInfo {
  std::string name;
  std::string paper_counterpart;
  SyntheticSpec spec;
  int default_honest_workers = 20;  ///< 20 for MNIST/Fashion, 10 otherwise
  int default_epochs = 8;           ///< 8 or 10 as in the paper (§6.1)
};

/// All registered benchmark names in canonical order.
std::vector<std::string> BenchmarkNames();

/// Looks up a benchmark by name.
Result<BenchmarkInfo> GetBenchmark(const std::string& name);

/// Generates the bundle for a named benchmark with the given seed.
Result<DatasetBundle> LoadBenchmark(const std::string& name, uint64_t seed);

}  // namespace data
}  // namespace dpbr

#endif  // DPBR_DATA_REGISTRY_H_
