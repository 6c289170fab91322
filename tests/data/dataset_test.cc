#include "data/dataset.h"

#include <gtest/gtest.h>

namespace dpbr {
namespace data {
namespace {

Dataset TinyDataset() {
  Dataset d(2, {2}, 3);
  d.Append({1.0f, 2.0f}, 0);
  d.Append({3.0f, 4.0f}, 1);
  d.Append({5.0f, 6.0f}, 2);
  d.Append({7.0f, 8.0f}, 1);
  return d;
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.feature_dim(), 2u);
  EXPECT_EQ(d.num_classes(), 3u);
  EXPECT_EQ(d.LabelAt(2), 2);
  EXPECT_FLOAT_EQ(d.FeaturesAt(1)[0], 3.0f);
  EXPECT_FLOAT_EQ(d.FeaturesAt(1)[1], 4.0f);
}

TEST(DatasetTest, ExampleTensorShaped) {
  Dataset d(4, {1, 2, 2}, 2);
  d.Append({1, 2, 3, 4}, 0);
  Tensor t = d.ExampleTensor(0);
  EXPECT_EQ(t.shape(), (std::vector<size_t>{1, 2, 2}));
  EXPECT_FLOAT_EQ(t.at(0, 1, 1), 4.0f);
}

TEST(DatasetViewTest, AllCoversEverything) {
  Dataset d = TinyDataset();
  DatasetView v = DatasetView::All(&d);
  EXPECT_EQ(v.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(v.LabelAt(i), d.LabelAt(i));
}

TEST(DatasetViewTest, SubsetIndices) {
  Dataset d = TinyDataset();
  DatasetView v(&d, {3, 0});
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.LabelAt(0), 1);  // example 3
  EXPECT_EQ(v.LabelAt(1), 0);  // example 0
  EXPECT_FLOAT_EQ(v.FeaturesAt(0)[0], 7.0f);
}

TEST(DatasetViewTest, FlippedLabels) {
  Dataset d = TinyDataset();
  DatasetView v = DatasetView::All(&d).WithFlippedLabels();
  // H = 3: label I reads as 2 - I.
  EXPECT_EQ(v.LabelAt(0), 2);
  EXPECT_EQ(v.LabelAt(1), 1);
  EXPECT_EQ(v.LabelAt(2), 0);
  // Double flip restores the original.
  DatasetView w = v.WithFlippedLabels();
  EXPECT_EQ(w.LabelAt(0), 0);
}

TEST(DatasetViewTest, FlipDoesNotTouchFeatures) {
  Dataset d = TinyDataset();
  DatasetView v = DatasetView::All(&d).WithFlippedLabels();
  EXPECT_FLOAT_EQ(v.FeaturesAt(0)[0], 1.0f);
}

}  // namespace
}  // namespace data
}  // namespace dpbr
