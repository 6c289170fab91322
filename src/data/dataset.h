// In-memory classification datasets and shard views.
//
// A Dataset owns contiguous feature storage; DatasetView is a cheap
// index-based slice used for worker shards and can flip labels lazily
// (the Label-flipping attack poisons shards as I → H-1-I without copying
// features).

#ifndef DPBR_DATA_DATASET_H_
#define DPBR_DATA_DATASET_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace dpbr {
namespace data {

/// Owning container: `size` examples of `feature_dim` floats plus labels.
class Dataset {
 public:
  /// `example_shape` describes how a single example is shaped when handed
  /// to a model (e.g. {64} for MLPs, {1, 8, 8} for CNNs); its product must
  /// equal feature_dim.
  Dataset(size_t feature_dim, std::vector<size_t> example_shape,
          size_t num_classes);

  /// Appends one example; label must lie in [0, num_classes).
  void Append(const float* features, int label);
  void Append(const std::vector<float>& features, int label);

  size_t size() const { return labels_.size(); }
  size_t feature_dim() const { return feature_dim_; }
  size_t num_classes() const { return num_classes_; }
  const std::vector<size_t>& example_shape() const { return example_shape_; }

  const float* FeaturesAt(size_t i) const;
  int LabelAt(size_t i) const;
  const std::vector<int>& labels() const { return labels_; }

  /// Copies example i into a Tensor shaped `example_shape`.
  Tensor ExampleTensor(size_t i) const;

 private:
  size_t feature_dim_;
  std::vector<size_t> example_shape_;
  size_t num_classes_;
  std::vector<float> features_;  // size * feature_dim, row-major
  std::vector<int> labels_;
};

/// Non-owning slice of a Dataset given by an index list.
class DatasetView {
 public:
  DatasetView() = default;
  DatasetView(const Dataset* base, std::vector<size_t> indices);

  /// Full view over a dataset.
  static DatasetView All(const Dataset* base);

  size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  const Dataset* base() const { return base_; }
  const std::vector<size_t>& indices() const { return indices_; }

  Tensor ExampleTensor(size_t i) const;
  const float* FeaturesAt(size_t i) const;
  int LabelAt(size_t i) const;

  /// Returns a copy of this view whose labels read as H-1-I
  /// (the paper's Label-flipping poisoning).
  DatasetView WithFlippedLabels() const;

 private:
  const Dataset* base_ = nullptr;
  std::vector<size_t> indices_;
  bool flip_labels_ = false;
};

/// Train/validation/test bundle produced by the generators.
struct DatasetBundle {
  Dataset train;
  Dataset val;
  Dataset test;
};

}  // namespace data
}  // namespace dpbr

#endif  // DPBR_DATA_DATASET_H_
