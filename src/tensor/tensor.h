// Dense row-major float tensor.
//
// dpbr's networks process one example at a time (the DP protocol needs
// per-example gradients), so Tensor is deliberately simple: contiguous
// float32 storage plus a shape. Heavier batched abstractions are not
// needed and would obscure the protocol code.

#ifndef DPBR_TENSOR_TENSOR_H_
#define DPBR_TENSOR_TENSOR_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace dpbr {

/// Contiguous row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty 0-d tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<size_t> shape);

  /// Tensor adopting `values` (size must match the shape product).
  Tensor(std::vector<size_t> shape, std::vector<float> values);

  /// Validating factory used at API boundaries.
  static Result<Tensor> Create(std::vector<size_t> shape,
                               std::vector<float> values);

  const std::vector<size_t>& shape() const { return shape_; }
  size_t ndim() const { return shape_.size(); }
  size_t size() const { return data_.size(); }
  size_t dim(size_t i) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  /// 2-d indexed access (checked).
  float& at(size_t i, size_t j);
  float at(size_t i, size_t j) const;

  /// 3-d indexed access for (channel, row, col) image tensors (checked).
  float& at(size_t c, size_t h, size_t w);
  float at(size_t c, size_t h, size_t w) const;

  void Fill(float v);
  void Zero() { Fill(0.0f); }

  /// Reinterprets the flat buffer under a new shape of equal size.
  Result<Tensor> Reshape(std::vector<size_t> new_shape) const;

  /// Fills with i.i.d. N(0, stddev²) entries.
  void FillGaussian(SplitRng* rng, double stddev);

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  std::vector<size_t> shape_;
  std::vector<float> data_;
};

}  // namespace dpbr

#endif  // DPBR_TENSOR_TENSOR_H_
