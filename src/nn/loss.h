// Softmax cross-entropy loss for classification.

#ifndef DPBR_NN_LOSS_H_
#define DPBR_NN_LOSS_H_

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace dpbr {
namespace nn {

/// Index of the maximum over a raw span (first maximum wins).
size_t Argmax(const float* v, size_t n);

/// Softmax cross-entropy over (N, C) logits: per-example losses plus
/// the (N, C) logit-gradient tensor, row j belonging to example j, with
/// grad = softmax(logits) - onehot(label). Softmax is computed
/// numerically stably (max-shifted) in double.
struct BatchLossGrad {
  std::vector<double> losses;
  Tensor grad_logits;
};
BatchLossGrad SoftmaxCrossEntropyBatch(const Tensor& logits,
                                       const std::vector<size_t>& labels);

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LOSS_H_
