// Softmax cross-entropy loss for classification.

#ifndef DPBR_NN_LOSS_H_
#define DPBR_NN_LOSS_H_

#include <cstddef>

#include "tensor/tensor.h"

namespace dpbr {
namespace nn {

/// Index of the maximum over a raw span (first maximum wins).
size_t Argmax(const float* v, size_t n);

/// Softmax cross-entropy of one example's (1, C) logits: the loss plus
/// the (1, C) logit gradient softmax(logits) - onehot(label). Softmax is
/// computed numerically stably (max-shifted) in double.
struct LossGrad {
  double loss = 0.0;
  Tensor grad_logits;
};
LossGrad SoftmaxCrossEntropy(const Tensor& logits, size_t label);

}  // namespace nn
}  // namespace dpbr

#endif  // DPBR_NN_LOSS_H_
