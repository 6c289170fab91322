#include "stats/ks_test.h"

#include <algorithm>
#include <array>
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

// KsGaussianAccepts' grid in z = x/σ: kGridCells equal cells over
// [kGridLo, −kGridLo] with edges e_b = kGridLo + b/kGridScale, plus one
// tail cell on each side. Cell 0 holds z < e_0 (and NaN), cell c in
// [1, kGridCells] holds e_{c−1} <= z < e_c, and the last cell z >= the
// last edge.
constexpr size_t kGridCells = 4096;
constexpr double kGridLo = -6.0;
constexpr double kGridScale = kGridCells / (-2.0 * kGridLo);
constexpr size_t kCellCount = kGridCells + 2;

// Φ at the cell edges: entry c is Φ at cell c's lower edge and entry
// c + 1 at its upper edge, with Φ(−inf) = 0 and Φ(+inf) = 1 for the
// tails. The grid is in z, so one table serves every σ.
const double* GridEdgeCdf() {
  static const std::array<double, kCellCount + 1> table = [] {
    std::array<double, kCellCount + 1> t{};
    for (size_t b = 0; b <= kGridCells; ++b) {
      t[b + 1] = NormalCdf(kGridLo + static_cast<double>(b) / kGridScale);
    }
    t[kCellCount] = 1.0;
    return t;
  }();
  return table.data();
}

// Truncates the clamped grid coordinate (a libm floor would be a call
// per value at the baseline ISA). A NaN z fails both comparisons and
// lands in cell 0.
inline int32_t GridCell(double z) {
  constexpr double kLastCell = kCellCount - 1;
  double t = (z - kGridLo) * kGridScale + 1.0;
  t = t > 0.0 ? t : 0.0;
  t = t < kLastCell ? t : kLastCell;
  return static_cast<int32_t>(t);
}

}  // namespace

bool KsGaussianAccepts(const float* data, size_t n, double stddev,
                       double alpha) {
  DPBR_CHECK_GT(n, 0u);
  DPBR_CHECK_GT(stddev, 0.0);
  DPBR_CHECK_LE(n, size_t{UINT32_MAX});  // cell counts are 32-bit
  const double inv_sigma = 1.0 / stddev;
  // Cell indices are computed a stack chunk at a time, so the index
  // arithmetic vectorizes apart from the count increments.
  constexpr size_t kChunk = 256;
  uint32_t count[kCellCount] = {};
  int32_t cell[kChunk];
  for (size_t i = 0; i < n; i += kChunk) {
    size_t m = std::min(kChunk, n - i);
    for (size_t j = 0; j < m; ++j) {
      cell[j] = GridCell(static_cast<double>(data[i + j]) * inv_sigma);
    }
    for (size_t j = 0; j < m; ++j) ++count[cell[j]];
  }
  // A non-finite z lands in a tail cell; the exact path owns those rows.
  if (count[0] + count[kCellCount - 1] != 0) {
    for (size_t i = 0; i < n; ++i) {
      if (!std::isfinite(static_cast<double>(data[i]) * inv_sigma)) {
        return KsTestGaussian(data, n, stddev).p_value >= alpha;
      }
    }
  }
  // With C_{c−1} values below cell c and C_c up to its end, the sorted
  // terms of cell c have u in [Φ(lower edge), Φ(upper edge)], so
  //   D_hi = max_c max(C_c/n − Φ(lower), Φ(upper) − C_{c−1}/n) >= D,
  //   D_lo = max_c max(C_c/n − Φ(upper), Φ(lower) − C_{c−1}/n) <= D
  // over the non-empty cells (D has terms only at sample points).
  const double* phi = GridEdgeCdf();
  const double inv_n = 1.0 / static_cast<double>(n);
  double d_lo = 0.0;
  double d_hi = 0.0;
  uint32_t below = 0;
  for (size_t c = 0; c < kCellCount; ++c) {
    if (count[c] == 0) continue;
    uint32_t upto = below + count[c];
    double f_below = static_cast<double>(below) * inv_n;
    double f_upto = static_cast<double>(upto) * inv_n;
    d_hi = std::max({d_hi, f_upto - phi[c], phi[c + 1] - f_below});
    d_lo = std::max({d_lo, f_upto - phi[c + 1], phi[c] - f_below});
    below = upto;
  }
  // kBracketSlack absorbs a z a few ulps across its cell's edge (the
  // truncated index and the edge table round differently) and libm's
  // few-ulp non-monotonicity of erfc; kPValueMargin absorbs rounding
  // noise in KsPValue, whose monotonicity in D a test pins.
  constexpr double kBracketSlack = 1e-12;
  constexpr double kPValueMargin = 1e-9;
  if (KsPValue(n, d_hi + kBracketSlack) >= alpha + kPValueMargin) {
    return true;
  }
  if (KsPValue(n, d_lo - kBracketSlack) < alpha - kPValueMargin) {
    return false;
  }
  return KsTestGaussian(data, n, stddev).p_value >= alpha;
}

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
