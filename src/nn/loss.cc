#include "nn/loss.h"

#include <algorithm>
#include <cmath>

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

BatchLossGrad SoftmaxCrossEntropyBatch(const Tensor& logits,
                                       const std::vector<size_t>& labels) {
  DPBR_CHECK_EQ(logits.ndim(), 2u);
  size_t batch = logits.dim(0), classes = logits.dim(1);
  DPBR_CHECK_EQ(labels.size(), batch);
  BatchLossGrad out;
  out.losses.resize(batch);
  out.grad_logits = Tensor({batch, classes});
  std::vector<double> p(classes);
  for (size_t ex = 0; ex < batch; ++ex) {
    const float* row = logits.data() + ex * classes;
    size_t label = labels[ex];
    DPBR_CHECK_LT(label, classes);
    double mx = row[0];
    for (size_t i = 1; i < classes; ++i) {
      mx = std::max(mx, static_cast<double>(row[i]));
    }
    double z = 0.0;
    for (size_t i = 0; i < classes; ++i) {
      p[i] = std::exp(static_cast<double>(row[i]) - mx);
      z += p[i];
    }
    for (size_t i = 0; i < classes; ++i) p[i] /= z;
    out.losses[ex] = -std::log(std::max(p[label], 1e-30));
    float* grad = out.grad_logits.data() + ex * classes;
    for (size_t i = 0; i < classes; ++i) {
      grad[i] = static_cast<float>(p[i] - (i == label ? 1.0 : 0.0));
    }
  }
  return out;
}

}  // namespace nn
}  // namespace dpbr
