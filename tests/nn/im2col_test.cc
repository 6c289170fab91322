// Bitwise contract of the conv data-movement kernels: nn::Im2Col and
// nn::Col2ImAccumulate must produce exactly the bytes of the row-wise
// loops below (one bounds-checked memset/memcpy per output row, one
// add call per valid row segment), which they replaced.
//
// The sweep covers pad 0 and pad > kernel-1, every output width 1..13
// (below the 4-float copy chunk and not a multiple of it), H != W,
// C = 1..3, and both conv shapes of the paper CNN. The column panel
// starts as garbage, so an element Im2Col skips shows; dX starts from a
// nonzero partial gradient, so a changed accumulation order shows.

#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/rng.h"

namespace dpbr {
namespace nn {
namespace {

void RowwiseIm2Col(const float* x, size_t channels, size_t h, size_t w,
                   size_t kernel, size_t pad, float* col) {
  size_t oh = h + 2 * pad - kernel + 1;
  size_t ow = w + 2 * pad - kernel + 1;
  size_t q = oh * ow;
  for (size_t ic = 0; ic < channels; ++ic) {
    const float* plane = x + ic * h * w;
    for (size_t kh = 0; kh < kernel; ++kh) {
      for (size_t kw = 0; kw < kernel; ++kw) {
        float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = 0; i < oh; ++i) {
          float* dst = row + i * ow;
          long long ih = static_cast<long long>(i + kh) -
                         static_cast<long long>(pad);
          if (ih < 0 || ih >= static_cast<long long>(h)) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          size_t j_lo = pad > kw ? pad - kw : 0;
          size_t j_hi = w + pad > kw ? std::min(ow, w + pad - kw) : 0;
          if (j_lo >= j_hi) {
            std::memset(dst, 0, ow * sizeof(float));
            continue;
          }
          std::memset(dst, 0, j_lo * sizeof(float));
          std::memcpy(dst + j_lo,
                      plane + static_cast<size_t>(ih) * w + (j_lo + kw - pad),
                      (j_hi - j_lo) * sizeof(float));
          std::memset(dst + j_hi, 0, (ow - j_hi) * sizeof(float));
        }
      }
    }
  }
}

void RowwiseCol2ImAccumulate(const float* col, size_t channels, size_t h,
                             size_t w, size_t kernel, size_t pad,
                             float* dx) {
  size_t oh = h + 2 * pad - kernel + 1;
  size_t ow = w + 2 * pad - kernel + 1;
  size_t q = oh * ow;
  for (size_t ic = 0; ic < channels; ++ic) {
    float* plane = dx + ic * h * w;
    for (size_t kh = 0; kh < kernel; ++kh) {
      for (size_t kw = 0; kw < kernel; ++kw) {
        const float* row = col + ((ic * kernel + kh) * kernel + kw) * q;
        for (size_t i = 0; i < oh; ++i) {
          long long ih = static_cast<long long>(i + kh) -
                         static_cast<long long>(pad);
          if (ih < 0 || ih >= static_cast<long long>(h)) continue;
          size_t j_lo = pad > kw ? pad - kw : 0;
          size_t j_hi = w + pad > kw ? std::min(ow, w + pad - kw) : 0;
          if (j_lo >= j_hi) continue;
          const float* src = row + i * ow + j_lo;
          float* dst = plane + static_cast<size_t>(ih) * w +
                       (j_lo + kw - pad);
          for (size_t j = 0; j < j_hi - j_lo; ++j) dst[j] += src[j];
        }
      }
    }
  }
}

struct Shape {
  size_t channels, h, w, kernel, pad;
};

std::vector<float> Gaussian(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  SplitRng rng(seed);
  rng.FillGaussian(v.data(), n, 1.0);
  return v;
}

void ExpectBitwiseEqual(const Shape& s) {
  SCOPED_TRACE(testing::Message()
               << "C=" << s.channels << " H=" << s.h << " W=" << s.w
               << " k=" << s.kernel << " p=" << s.pad);
  size_t oh = s.h + 2 * s.pad - s.kernel + 1;
  size_t ow = s.w + 2 * s.pad - s.kernel + 1;
  size_t rows = s.channels * s.kernel * s.kernel;
  size_t cols = rows * oh * ow;
  size_t image = s.channels * s.h * s.w;

  std::vector<float> x = Gaussian(image, 3 + cols);
  std::vector<float> want(cols), got(cols);
  std::memset(want.data(), 0xA5, cols * sizeof(float));
  std::memset(got.data(), 0xA5, cols * sizeof(float));
  RowwiseIm2Col(x.data(), s.channels, s.h, s.w, s.kernel, s.pad,
                want.data());
  Im2Col(x.data(), s.channels, s.h, s.w, s.kernel, s.pad, got.data());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), cols * sizeof(float)), 0)
      << "Im2Col";

  std::vector<float> dcol = Gaussian(cols, 5 + cols);
  std::vector<float> dx_want = Gaussian(image, 7 + image);
  std::vector<float> dx_got = dx_want;
  RowwiseCol2ImAccumulate(dcol.data(), s.channels, s.h, s.w, s.kernel,
                          s.pad, dx_want.data());
  Col2ImAccumulate(dcol.data(), s.channels, s.h, s.w, s.kernel, s.pad,
                   dx_got.data());
  size_t bytes = image * sizeof(float);
  EXPECT_EQ(std::memcmp(dx_want.data(), dx_got.data(), bytes), 0)
      << "Col2ImAccumulate";
}

TEST(Im2ColTest, BitwiseEqualToRowwiseReferenceOverSweep) {
  std::set<size_t> widths;
  for (size_t channels = 1; channels <= 3; ++channels) {
    for (size_t kernel : {size_t{1}, size_t{3}, size_t{5}}) {
      for (size_t pad : {size_t{0}, size_t{1}, kernel - 1, kernel + 1}) {
        for (size_t w = 1; w <= 14; ++w) {
          // H != W for most widths.
          size_t h = w % 5 + 3;
          // At least one output row and column.
          if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
          size_t ow = w + 2 * pad - kernel + 1;
          if (ow > 13) continue;
          widths.insert(ow);
          ExpectBitwiseEqual({channels, h, w, kernel, pad});
        }
      }
    }
  }
  for (size_t ow = 1; ow <= 13; ++ow) {
    EXPECT_EQ(widths.count(ow), 1u) << "output width " << ow << " unswept";
  }
}

TEST(Im2ColTest, BitwiseEqualToRowwiseReferenceAtPaperCnnShapes) {
  // The first conv (1 -> 16 on 16x16, no padding), then the same-padded
  // 16 -> 16 one on 12x12.
  ExpectBitwiseEqual({1, 16, 16, 5, 0});
  ExpectBitwiseEqual({16, 12, 12, 5, 2});
}

TEST(Im2ColTest, StalePadPanelDoesNotLeak) {
  // The padded copy reuses one grow-only per-thread panel; a small
  // shape after a larger one must not read the larger one's leftovers.
  ExpectBitwiseEqual({3, 13, 11, 3, 4});
  ExpectBitwiseEqual({1, 2, 3, 3, 1});
}

TEST(Im2ColDeathTest, KernelLargerThanPaddedInputDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<float> buf(64, 0.0f);
  // h + 2p + 1 = 4 < k = 5: the output height would wrap around.
  EXPECT_DEATH(Im2Col(buf.data(), 1, 1, 5, 5, 1, buf.data()),
               "Check failed");
  EXPECT_DEATH(Col2ImAccumulate(buf.data(), 1, 1, 5, 5, 1, buf.data()),
               "Check failed");
  // ... and the same for the width.
  EXPECT_DEATH(Im2Col(buf.data(), 1, 5, 1, 5, 1, buf.data()),
               "Check failed");
  EXPECT_DEATH(Col2ImAccumulate(buf.data(), 1, 5, 1, 5, 1, buf.data()),
               "Check failed");
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
