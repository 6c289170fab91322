#include "stats/ks_test.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "stats/distributions.h"
#include "stats/kolmogorov.h"

namespace dpbr {
namespace stats {
namespace {

// Folds the i-th (0-based) sorted CDF value u_i = F(x_(i)) into
//   D = max_i max( (i+1)/n - u_i, u_i - i/n ).
inline void FoldDStatistic(double u, size_t i, double inv_n, double* d) {
  double above = static_cast<double>(i + 1) * inv_n - u;
  double below = u - static_cast<double>(i) * inv_n;
  if (above > *d) *d = above;
  if (below > *d) *d = below;
}

// Order-preserving float keys: unsigned comparison of the keys is the
// float order (−0 sorts just below +0; NaNs land beyond ±inf by sign), so
// the order is total on bit patterns.
inline uint32_t FloatToOrderKey(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
}

inline float OrderKeyToFloat(uint32_t k) {
  uint32_t b = (k & 0x80000000u) ? (k & 0x7fffffffu) : ~k;
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

// Two n-key buffers from one grow-only arena per thread (KsTestGaussian
// runs inline or on distinct pool workers, so it is never shared across
// concurrent calls). Growth stops at the largest d seen; warm calls do
// not touch the allocator.
uint32_t* ThreadKeyScratch(size_t n) {
  static thread_local std::vector<uint32_t> keys;
  // dpbr-lint: allow(hotpath-alloc) -- grow-only thread-local key buffers
  if (keys.size() < 2 * n) keys.resize(2 * n);
  return keys.data();
}

// Sorts the order keys of data[0, n) with an LSD radix sort in three
// stable passes of 11/11/10 bits. `scratch` holds 2n keys; returns the
// sorted run, which is scratch + n.
constexpr int kDigitShift[3] = {0, 11, 22};
constexpr uint32_t kDigitMask[3] = {0x7ffu, 0x7ffu, 0x3ffu};

const uint32_t* RadixSortOrderKeys(const float* data, size_t n,
                                   uint32_t* scratch) {
  // Keys and all three histograms in one read of the input.
  uint32_t count[3][2048] = {};
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = FloatToOrderKey(data[i]);
    scratch[i] = k;
    ++count[0][k & 0x7ffu];
    ++count[1][(k >> 11) & 0x7ffu];
    ++count[2][k >> 22];
  }
  uint32_t* src = scratch;
  uint32_t* dst = scratch + n;
  for (int pass = 0; pass < 3; ++pass) {
    uint32_t* c = count[pass];
    // Exclusive prefix sums turn counts into bucket write offsets.
    uint32_t sum = 0;
    for (uint32_t b = 0; b <= kDigitMask[pass]; ++b) {
      uint32_t cnt = c[b];
      c[b] = sum;
      sum += cnt;
    }
    int shift = kDigitShift[pass];
    uint32_t mask = kDigitMask[pass];
    for (size_t i = 0; i < n; ++i) {
      uint32_t k = src[i];
      dst[c[(k >> shift) & mask]++] = k;
    }
    std::swap(src, dst);
  }
  // Three passes ping-pong scratch -> scratch+n -> scratch -> scratch+n.
  return src;
}

// The D scan over radix-sorted order keys, evaluating Φ only where the
// maximum can be. Φ is monotone, so between sorted indices lo < hi every
// u_i lies in [u_lo, u_hi] and each term of index i in (lo, hi) is at
// most max(hi/n − u_lo, u_hi − (lo+1)/n). FoldInterior skips a range
// whose bound cannot beat the running D and bisects the rest. Every
// skipped term is <= the final D, so D — a max, which is independent of
// fold order — is bitwise the full scan's. kMonotoneSlack absorbs the
// rounding of the bound and any few-ulp non-monotonicity of libm's erfc.
struct SortedKeyScan {
  static constexpr double kMonotoneSlack = 1e-12;

  const uint32_t* keys;
  double inv_sigma;
  double inv_n;
  double d = 0.0;

  double Cdf(size_t i) const {
    return NormalCdf(static_cast<double>(OrderKeyToFloat(keys[i])) *
                     inv_sigma);
  }

  // Folds the terms of indices strictly between lo and hi, whose exact
  // CDF values are u_lo and u_hi.
  void FoldInterior(size_t lo, size_t hi, double u_lo, double u_hi) {
    if (hi - lo < 2) return;
    double above_bound = static_cast<double>(hi) * inv_n - u_lo;
    double below_bound = u_hi - static_cast<double>(lo + 1) * inv_n;
    // A NaN endpoint (NaNs sort to the ends) fails both tests and the
    // range is bisected down to its finite values.
    if (above_bound + kMonotoneSlack <= d &&
        below_bound + kMonotoneSlack <= d) {
      return;
    }
    size_t mid = lo + (hi - lo) / 2;
    double u_mid = Cdf(mid);
    FoldDStatistic(u_mid, mid, inv_n, &d);
    FoldInterior(lo, mid, u_lo, u_mid);
    FoldInterior(mid, hi, u_mid, u_hi);
  }
};

}  // namespace

KsResult KsTestGaussian(const float* data, size_t n, double stddev) {
  DPBR_CHECK_GT(n, 0u);
  DPBR_CHECK_GT(stddev, 0.0);
  DPBR_CHECK_LE(n, size_t{UINT32_MAX});  // radix bucket offsets are 32-bit
  // Sorting raw values then evaluating Φ preserves order (Φ is monotone),
  // so we sort float order keys and map them. The radix order equals
  // std::sort's up to the placement of −0 against +0, and Φ(−0) == Φ(+0),
  // so D is bitwise what a comparison sort gives.
  SortedKeyScan scan{RadixSortOrderKeys(data, n, ThreadKeyScratch(n)),
                     1.0 / stddev, 1.0 / static_cast<double>(n)};
  double u_first = scan.Cdf(0);
  double u_last = scan.Cdf(n - 1);
  FoldDStatistic(u_first, 0, scan.inv_n, &scan.d);
  FoldDStatistic(u_last, n - 1, scan.inv_n, &scan.d);
  scan.FoldInterior(0, n - 1, u_first, u_last);
  KsResult r;
  r.n = n;
  r.statistic = scan.d;
  r.p_value = KsPValue(n, r.statistic);
  return r;
}

}  // namespace stats
}  // namespace dpbr
