#include "attacks/a_little.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "stats/distributions.h"

namespace dpbr {
namespace attacks {
namespace {

// Coordinates per forge claim: 25 claims at the paper MLP's d = 25,450,
// with 20 KB of per-block scratch on the stack.
constexpr size_t kForgeBlock = 1024;

}  // namespace

void ALittleAttack::ForgeInto(const fl::AttackContext& ctx, RowSpan out) {
  ConstRowSpan honest = ctx.honest_uploads;
  DPBR_CHECK(!honest.empty());
  size_t bm = honest.rows;
  size_t n = bm + out.rows;

  double z;
  if (z_override_ > 0.0) {
    z = z_override_;
  } else {
    // Baruch et al.: s = ⌊n/2 + 1⌋ − m supporters needed for a corrupted
    // majority; z_max = Φ⁻¹((n − m − s)/(n − m)).
    double m = static_cast<double>(out.rows);
    double s =
        std::floor(static_cast<double>(n) / 2.0 + 1.0) - m;
    double frac = (static_cast<double>(n) - m - s) /
                  (static_cast<double>(n) - m);
    frac = std::min(std::max(frac, 0.05), 0.95);
    z = stats::NormalQuantile(frac);
    z = std::min(std::max(z, 0.5), 3.0);
  }

  // Benign per-coordinate mean and std, then μ − z·s, a block of
  // coordinates per claim. Each coordinate sums the honest rows in row
  // order, as one serial pass over all of them would, so the forged
  // bits do not depend on the blocking or the pool.
  const double denom = bm > 1 ? static_cast<double>(bm - 1) : 1.0;
  ParallelForBlocked(ctx.dim, kForgeBlock, [&](size_t lo, size_t hi) {
    const size_t w = hi - lo;
    double mean[kForgeBlock] = {};
    double var[kForgeBlock] = {};
    float forged[kForgeBlock];
    for (size_t i = 0; i < bm; ++i) {
      const float* u = honest.Row(i) + lo;
      for (size_t k = 0; k < w; ++k) mean[k] += u[k];
    }
    for (size_t k = 0; k < w; ++k) mean[k] /= static_cast<double>(bm);
    for (size_t i = 0; i < bm; ++i) {
      const float* u = honest.Row(i) + lo;
      for (size_t k = 0; k < w; ++k) {
        double d = u[k] - mean[k];
        var[k] += d * d;
      }
    }
    for (size_t k = 0; k < w; ++k) {
      double sd = std::sqrt(var[k] / denom);
      forged[k] = static_cast<float>(mean[k] - z * sd);
    }
    for (size_t r = 0; r < out.rows; ++r) {
      std::memcpy(out.Row(r) + lo, forged, w * sizeof(float));
    }
  });
}

}  // namespace attacks
}  // namespace dpbr
