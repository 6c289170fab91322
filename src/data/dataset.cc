#include "data/dataset.h"

#include "common/logging.h"

namespace dpbr {
namespace data {
namespace {

size_t ShapeProduct(const std::vector<size_t>& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}

}  // namespace

Dataset::Dataset(size_t feature_dim, std::vector<size_t> example_shape,
                 size_t num_classes)
    : feature_dim_(feature_dim),
      example_shape_(std::move(example_shape)),
      num_classes_(num_classes) {
  DPBR_CHECK_GT(feature_dim_, 0u);
  DPBR_CHECK_GT(num_classes_, 0u);
  DPBR_CHECK_EQ(ShapeProduct(example_shape_), feature_dim_);
}

void Dataset::Append(const float* features, int label) {
  DPBR_CHECK_GE(label, 0);
  DPBR_CHECK_LT(static_cast<size_t>(label), num_classes_);
  features_.insert(features_.end(), features, features + feature_dim_);
  labels_.push_back(label);
}

void Dataset::Append(const std::vector<float>& features, int label) {
  DPBR_CHECK_EQ(features.size(), feature_dim_);
  Append(features.data(), label);
}

const float* Dataset::FeaturesAt(size_t i) const {
  DPBR_CHECK_LT(i, size());
  return features_.data() + i * feature_dim_;
}

int Dataset::LabelAt(size_t i) const {
  DPBR_CHECK_LT(i, size());
  return labels_[i];
}

Tensor Dataset::ExampleTensor(size_t i) const {
  const float* f = FeaturesAt(i);
  return Tensor(example_shape_, std::vector<float>(f, f + feature_dim_));
}

DatasetView::DatasetView(const Dataset* base, std::vector<size_t> indices)
    : base_(base), indices_(std::move(indices)) {
  DPBR_CHECK(base_ != nullptr);
  for (size_t idx : indices_) DPBR_CHECK_LT(idx, base_->size());
}

DatasetView DatasetView::All(const Dataset* base) {
  std::vector<size_t> idx(base->size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return DatasetView(base, std::move(idx));
}

Tensor DatasetView::ExampleTensor(size_t i) const {
  DPBR_CHECK_LT(i, size());
  return base_->ExampleTensor(indices_[i]);
}

const float* DatasetView::FeaturesAt(size_t i) const {
  DPBR_CHECK_LT(i, size());
  return base_->FeaturesAt(indices_[i]);
}

int DatasetView::LabelAt(size_t i) const {
  DPBR_CHECK_LT(i, size());
  int label = base_->LabelAt(indices_[i]);
  if (flip_labels_) {
    return static_cast<int>(base_->num_classes()) - 1 - label;
  }
  return label;
}

DatasetView DatasetView::WithFlippedLabels() const {
  DatasetView v = *this;
  v.flip_labels_ = !v.flip_labels_;
  return v;
}

}  // namespace data
}  // namespace dpbr
