#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace dpbr {
namespace nn {

size_t Argmax(const float* v, size_t n) {
  DPBR_CHECK_GT(n, 0u);
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (v[i] > v[best]) best = i;
  }
  return best;
}

LossGrad SoftmaxCrossEntropy(const Tensor& logits, size_t label) {
  DPBR_CHECK_EQ(logits.ndim(), 2u);
  DPBR_CHECK_EQ(logits.dim(0), 1u);
  size_t classes = logits.dim(1);
  DPBR_CHECK_LT(label, classes);
  const float* row = logits.data();
  double mx = row[0];
  for (size_t i = 1; i < classes; ++i) {
    mx = std::max(mx, static_cast<double>(row[i]));
  }
  std::vector<double> p(classes);
  double z = 0.0;
  for (size_t i = 0; i < classes; ++i) {
    p[i] = std::exp(static_cast<double>(row[i]) - mx);
    z += p[i];
  }
  for (size_t i = 0; i < classes; ++i) p[i] /= z;
  LossGrad out;
  out.loss = -std::log(std::max(p[label], 1e-30));
  out.grad_logits = Tensor({1, classes});
  for (size_t i = 0; i < classes; ++i) {
    out.grad_logits[i] = static_cast<float>(p[i] - (i == label ? 1.0 : 0.0));
  }
  return out;
}

}  // namespace nn
}  // namespace dpbr
