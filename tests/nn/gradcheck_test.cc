// Finite-difference gradient checks: the per-example gradients that feed
// the DP protocol (an example's gradient row) must be exact for every
// layer type the model zoo uses.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dpbr {
namespace nn {
namespace {

// Loss of `model` on the example (x, label) at its current parameters.
double LossAt(Sequential* model, const Tensor& x, size_t label) {
  return SoftmaxCrossEntropy(model->ForwardBatch(x), label).loss;
}

// Checks d(loss)/d(params) against central differences on a sample of
// parameter coordinates, and d(loss)/d(input) on all input coordinates.
// `x` is one example (leading dimension 1).
void CheckGradients(std::unique_ptr<Sequential> model, Tensor x,
                    size_t label, double fd_eps = 5e-3,
                    double tolerance = 2e-2) {
  SplitRng rng(99);
  model->InitParams(&rng);

  // Analytic gradients: the example's gradient row.
  LossGrad lg = SoftmaxCrossEntropy(model->ForwardBatch(x), label);
  std::vector<float> analytic(model->NumParams());
  Tensor dx = model->BackwardTo(lg.grad_logits, analytic.data());
  std::vector<float> params = model->FlatParams();

  // Parameter gradients on a deterministic sample of coordinates.
  SplitRng pick(7);
  size_t n_checks = std::min<size_t>(params.size(), 60);
  std::vector<size_t> idx =
      pick.SampleWithoutReplacement(params.size(), n_checks);
  for (size_t i : idx) {
    std::vector<float> p = params;
    p[i] = params[i] + static_cast<float>(fd_eps);
    model->SetParamsFrom(p.data());
    double up = LossAt(model.get(), x, label);
    p[i] = params[i] - static_cast<float>(fd_eps);
    model->SetParamsFrom(p.data());
    double down = LossAt(model.get(), x, label);
    double numeric = (up - down) / (2.0 * fd_eps);
    double a = analytic[i];
    EXPECT_NEAR(a, numeric, tolerance * (std::abs(a) + std::abs(numeric)) +
                                tolerance * 0.2)
        << "param index " << i;
  }

  // Input gradients on every coordinate.
  model->SetParamsFrom(params.data());
  for (size_t i = 0; i < x.size(); ++i) {
    Tensor xp = x;
    xp[i] += static_cast<float>(fd_eps);
    double up = LossAt(model.get(), xp, label);
    xp[i] = x[i] - static_cast<float>(fd_eps);
    double down = LossAt(model.get(), xp, label);
    double numeric = (up - down) / (2.0 * fd_eps);
    double a = dx[i];
    EXPECT_NEAR(a, numeric, tolerance * (std::abs(a) + std::abs(numeric)) +
                                tolerance * 0.2)
        << "input index " << i;
  }
}

// One example of shape `shape` (leading dimension 1).
Tensor RandomInput(std::vector<size_t> shape, uint64_t seed) {
  SplitRng rng(seed);
  shape.insert(shape.begin(), 1);
  Tensor x(std::move(shape));
  x.FillGaussian(&rng, 1.0);
  return x;
}

TEST(GradCheckTest, LinearOnly) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Linear>(6, 4));
  CheckGradients(std::move(m), RandomInput({6}, 1), 2);
}

TEST(GradCheckTest, LinearEluStack) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Linear>(8, 6));
  m->Add(std::make_unique<Elu>());
  m->Add(std::make_unique<Linear>(6, 3));
  CheckGradients(std::move(m), RandomInput({8}, 2), 1);
}

TEST(GradCheckTest, Conv2dNoPadding) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Conv2d>(2, 3, 3, 0));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(3 * 4 * 4, 3));
  CheckGradients(std::move(m), RandomInput({2, 6, 6}, 4), 2);
}

TEST(GradCheckTest, Conv2dWithPadding) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Conv2d>(1, 2, 3, 1));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(2 * 5 * 5, 2));
  CheckGradients(std::move(m), RandomInput({1, 5, 5}, 5), 1);
}

TEST(GradCheckTest, GroupNorm) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Conv2d>(1, 4, 3, 1));
  m->Add(std::make_unique<GroupNorm>(4, 4));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(4 * 5 * 5, 3));
  CheckGradients(std::move(m), RandomInput({1, 5, 5}, 7), 2);
}

TEST(GradCheckTest, AdaptiveAvgPool) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Conv2d>(1, 2, 3, 1));
  m->Add(std::make_unique<AdaptiveAvgPool2d>(2, 2));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(2 * 2 * 2, 2));
  CheckGradients(std::move(m), RandomInput({1, 6, 6}, 8), 1);
}

TEST(GradCheckTest, ResidualBlock) {
  auto body = std::make_unique<Sequential>();
  body->Add(std::make_unique<Conv2d>(2, 2, 3, 1));
  body->Add(std::make_unique<Elu>());
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Residual>(std::move(body)));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(2 * 5 * 5, 3));
  CheckGradients(std::move(m), RandomInput({2, 5, 5}, 9), 2);
}

TEST(GradCheckTest, PaperMnistCnnTopology) {
  // Full MakeCnn on a small image: every layer type at once.
  CheckGradients(MakeCnn(1, 8, 3, 4), RandomInput({1, 8, 8}, 10), 3);
}

TEST(GradCheckTest, PaperResidualCnnTopology) {
  CheckGradients(MakeResidualCnn(1, 8, 3, 4), RandomInput({1, 8, 8}, 11), 1);
}

TEST(GradCheckTest, PaperMlpTopology) {
  CheckGradients(MakeMlp(20, 8, 5), RandomInput({20}, 12), 4);
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
