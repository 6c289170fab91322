#include "tensor/tensor.h"

#include <numeric>

#include "common/logging.h"

namespace dpbr {
namespace {

size_t ShapeProduct(const std::vector<size_t>& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<size_t> shape)
    : shape_(std::move(shape)), data_(ShapeProduct(shape_), 0.0f) {}

Tensor::Tensor(std::vector<size_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  DPBR_CHECK_EQ(data_.size(), ShapeProduct(shape_));
}

Result<Tensor> Tensor::Create(std::vector<size_t> shape,
                              std::vector<float> values) {
  if (values.size() != ShapeProduct(shape)) {
    return Status::InvalidArgument("value count does not match shape");
  }
  return Tensor(std::move(shape), std::move(values));
}

size_t Tensor::dim(size_t i) const {
  DPBR_CHECK_LT(i, shape_.size());
  return shape_[i];
}

float& Tensor::at(size_t i, size_t j) {
  DPBR_CHECK_EQ(ndim(), 2u);
  DPBR_CHECK_LT(i, shape_[0]);
  DPBR_CHECK_LT(j, shape_[1]);
  return data_[i * shape_[1] + j];
}

float Tensor::at(size_t i, size_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(size_t c, size_t h, size_t w) {
  DPBR_CHECK_EQ(ndim(), 3u);
  DPBR_CHECK_LT(c, shape_[0]);
  DPBR_CHECK_LT(h, shape_[1]);
  DPBR_CHECK_LT(w, shape_[2]);
  return data_[(c * shape_[1] + h) * shape_[2] + w];
}

float Tensor::at(size_t c, size_t h, size_t w) const {
  return const_cast<Tensor*>(this)->at(c, h, w);
}

void Tensor::Fill(float v) {
  for (auto& x : data_) x = v;
}

Result<Tensor> Tensor::Reshape(std::vector<size_t> new_shape) const {
  if (ShapeProduct(new_shape) != size()) {
    return Status::InvalidArgument("reshape changes element count");
  }
  return Tensor(std::move(new_shape), data_);
}

void Tensor::FillGaussian(SplitRng* rng, double stddev) {
  rng->FillGaussian(data_.data(), data_.size(), stddev);
}

}  // namespace dpbr
