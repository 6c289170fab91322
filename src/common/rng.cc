#include "common/rng.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace dpbr {
namespace {

// SplitMix64 output function (Steele, Lea, Flood 2014). Bijective mixer with
// good avalanche; the de-facto standard for seeding and counter RNGs.
inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Combines a key with a stream id into a new key (hash-combine style).
inline uint64_t Combine(uint64_t key, uint64_t id) {
  return Mix64(key ^ (Mix64(id) + 0x9e3779b97f4a7c15ULL + (key << 6) +
                      (key >> 2)));
}

// --- 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000,
// constants per Doornik 2005). The area under f(x) = exp(-x²/2), x >= 0,
// is carved into 256 regions of equal area kA: 255 horizontal strips plus
// a base strip that also covers the tail beyond kR. Layer widths x_i
// decrease from x_1 = kR down to x_256 = 0; x_0 = kA / f(kR) is the
// virtual width of the base strip, chosen so that the probability of
// falling past kR inside the base strip equals the true tail mass.

constexpr int kZigLayers = 256;
constexpr double kZigR = 3.6541528853610088;    // base strip edge
constexpr double kZigArea = 0.00492867323399;   // area of each region

struct ZigguratTables {
  // x[0] > x[1] = kZigR > ... > x[256] = 0, f[i] = exp(-x[i]²/2).
  double x[kZigLayers + 1];
  double f[kZigLayers + 1];
  // Fast-path acceleration: with j the 53 uniform bits of a draw in layer
  // i, accept immediately when j < k[i] (j·w[i] is then inside the inner
  // rectangle); w[i] = x[i]·2⁻⁵³ maps j straight to the variate with one
  // multiply. Boundary j values fall through to the exact wedge/tail
  // tests, so the integer shortcut never changes the distribution.
  uint64_t k[kZigLayers];
  double w[kZigLayers];

  ZigguratTables() {
    x[1] = kZigR;
    x[0] = kZigArea / std::exp(-0.5 * kZigR * kZigR);
    for (int i = 2; i < kZigLayers; ++i) {
      // f(x_i) = f(x_{i-1}) + kA / x_{i-1}: each strip has area kA.
      double fi =
          kZigArea / x[i - 1] + std::exp(-0.5 * x[i - 1] * x[i - 1]);
      x[i] = std::sqrt(-2.0 * std::log(fi));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i <= kZigLayers; ++i) {
      f[i] = std::exp(-0.5 * x[i] * x[i]);
    }
    k[0] = static_cast<uint64_t>(kZigR / x[0] * 0x1.0p53);
    for (int i = 1; i < kZigLayers; ++i) {
      k[i] = static_cast<uint64_t>(x[i + 1] / x[i] * 0x1.0p53);
    }
    for (int i = 0; i < kZigLayers; ++i) w[i] = x[i] * 0x1.0p-53;
  }
};

const ZigguratTables& Ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace

SplitRng::SplitRng(uint64_t seed)
    : key_(Mix64(seed)), counter_(0), has_spare_(false), spare_(0.0) {}

SplitRng::SplitRng(uint64_t seed, std::initializer_list<uint64_t> ids)
    : SplitRng(seed) {
  for (uint64_t id : ids) key_ = Combine(key_, id);
}

SplitRng SplitRng::Split(uint64_t id) const {
  return SplitRng(Combine(key_, id), 0);
}

uint64_t SplitRng::Next64() { return Mix64(key_ + counter_++); }

double SplitRng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double SplitRng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * Uniform();
}

uint64_t SplitRng::UniformInt(uint64_t n) {
  DPBR_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (~uint64_t{0} - n + 1) % n;
  for (;;) {
    uint64_t r = Next64();
    if (r >= threshold) return r % n;
  }
}

double SplitRng::Gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  // Box-Muller; u1 in (0,1] to keep log finite.
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double SplitRng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double SplitRng::GaussianZiggurat() {
  static constexpr double kSign[2] = {1.0, -1.0};
  const ZigguratTables& t = Ziggurat();
  for (;;) {
    // One 64-bit draw covers the common case: 8 bits pick the layer, one
    // bit the sign, and the top 53 bits the position within the layer.
    // The sign is applied by multiply, not branch: the sign bit is a coin
    // flip, and a 50%-mispredicted branch would dominate the fast path.
    uint64_t bits = Next64();
    size_t i = bits & 0xFF;
    uint64_t j = bits >> 11;
    double s = kSign[(bits >> 8) & 1];
    double x = static_cast<double>(j) * t.w[i];
    if (j < t.k[i]) return x * s;  // inner rectangle
    if (i == 0) {
      // Base strip overhang: sample the tail x > kR (Marsaglia's method;
      // 1 - U keeps the logs finite).
      double xx, yy;
      do {
        xx = -std::log(1.0 - Uniform()) / kZigR;
        yy = -std::log(1.0 - Uniform());
      } while (yy + yy < xx * xx);
      return (kZigR + xx) * s;
    }
    // Wedge: y uniform over the strip's vertical span [f(x_i), f(x_{i+1})].
    double y = t.f[i] + Uniform() * (t.f[i + 1] - t.f[i]);
    if (y < std::exp(-0.5 * x * x)) return x * s;
  }
}

void SplitRng::GaussianBlock(uint64_t base, uint64_t block, float* data,
                             size_t n, double stddev, bool accumulate) {
  DPBR_CHECK_LE(n, kGaussianFillBlock);
  // The SplitMix64 stream is a pure function of (key, counter), so the
  // SIMD batch kernel (when the active tier has one) can compute several
  // candidate draws at once and commit the accepted prefix; it stops at
  // the first draw needing the exact wedge/tail fallback, which the
  // scalar sampler then re-derives from the same counter. The output
  // stream is bit-identical either way.
  const simd::SimdKernels& kern = simd::Kernels();
  const ZigguratTables& t = Ziggurat();
  SplitRng rng(base, {block});
  size_t i = 0;
  while (i < n) {
    if (kern.zig_try_fill_f32 != nullptr) {
      size_t got = kern.zig_try_fill_f32(rng.key_, rng.counter_, t.w, t.k,
                                         stddev, accumulate, data + i, n - i);
      rng.counter_ += got;
      i += got;
      if (i >= n) break;
    }
    float g = static_cast<float>(stddev * rng.GaussianZiggurat());
    if (accumulate) {
      data[i] += g;
    } else {
      data[i] = g;
    }
    ++i;
  }
}

void SplitRng::BulkGaussian(float* data, size_t n, double stddev,
                            bool accumulate) {
  if (n == 0) return;
  // One parent draw keys the whole fill; block b then draws from the
  // independent child stream SplitRng(base, {b}). Block boundaries depend
  // only on n, so the output is bit-identical under any pool size.
  uint64_t base = Next64();
  ParallelForBlocked(n, kGaussianFillBlock, [&](size_t lo, size_t hi) {
    GaussianBlock(base, lo / kGaussianFillBlock, data + lo, hi - lo, stddev,
                  accumulate);
  });
}

void SplitRng::FillGaussian(float* out, size_t n, double stddev) {
  BulkGaussian(out, n, stddev, /*accumulate=*/false);
}

void SplitRng::AddGaussian(float* data, size_t n, double stddev) {
  BulkGaussian(data, n, stddev, /*accumulate=*/true);
}

std::vector<size_t> SplitRng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = UniformInt(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

std::vector<size_t> SplitRng::SampleWithoutReplacement(size_t n, size_t k) {
  DPBR_CHECK_LE(k, n);
  // Partial Fisher-Yates over an index array; O(n) memory, O(n + k) time.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + UniformInt(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace dpbr
