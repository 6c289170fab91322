// Synthetic classification data standing in for the paper's MNIST /
// Fashion / USPS / Colorectal / KMNIST benchmarks (raw image files are
// unavailable offline).
//
// Two generator families:
//  * Gaussian-mixture vectors: class means on a sphere + isotropic noise,
//    with a label-noise knob that caps achievable accuracy (used to match
//    each benchmark's relative difficulty).
//  * Pattern images: class-specific smooth 2-d patterns + pixel noise,
//    shaped (1, H, W) for the CNN models.
//
// `data_space_seed` selects the data space X (the class structure).
// Generators with different data_space_seeds produce mutually alien
// datasets — exactly the property supp. Table 17 needs for
// out-of-distribution auxiliary data.

#ifndef DPBR_DATA_SYNTHETIC_H_
#define DPBR_DATA_SYNTHETIC_H_

#include <cstdint>

#include "common/status.h"
#include "data/dataset.h"

namespace dpbr {
namespace data {

/// Parameters of a synthetic benchmark.
struct SyntheticSpec {
  size_t num_classes = 10;
  size_t feature_dim = 64;
  size_t image_h = 0;  ///< > 0 switches to the pattern-image generator
  size_t image_w = 0;  ///< (feature_dim must equal image_h * image_w)
  size_t train_size = 4000;
  size_t val_size = 500;
  size_t test_size = 1000;
  double class_separation = 2.0;  ///< distance scale between class means
  double noise_std = 1.0;         ///< per-feature sampling noise
  double label_noise = 0.0;       ///< fraction of uniformly relabeled rows
  uint64_t data_space_seed = 17;  ///< defines the data space X
};

/// Validates a spec.
Status ValidateSyntheticSpec(const SyntheticSpec& spec);

/// Generates train/val/test splits. `seed` controls sampling; the class
/// structure itself depends only on spec.data_space_seed, so two bundles
/// with equal specs but different seeds are drawn from the same space X.
Result<DatasetBundle> GenerateSynthetic(const SyntheticSpec& spec,
                                        uint64_t seed);

}  // namespace data
}  // namespace dpbr

#endif  // DPBR_DATA_SYNTHETIC_H_
