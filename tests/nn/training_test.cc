// Centralized (non-federated) training sanity: the NN substrate must be
// able to fit simple tasks, otherwise the FL experiments are meaningless.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace nn {
namespace {

// Two Gaussian blobs in 2-d, linearly separable; each x is one example.
struct Blobs {
  std::vector<Tensor> xs;
  std::vector<size_t> ys;
};

Blobs MakeBlobs(size_t n, uint64_t seed) {
  SplitRng rng(seed);
  Blobs b;
  for (size_t i = 0; i < n; ++i) {
    size_t label = i % 2;
    double cx = label == 0 ? -2.0 : 2.0;
    Tensor x({1, 2});
    x[0] = static_cast<float>(rng.Gaussian(cx, 1.0));
    x[1] = static_cast<float>(rng.Gaussian(0.0, 1.0));
    b.xs.push_back(std::move(x));
    b.ys.push_back(label);
  }
  return b;
}

size_t Predict(Sequential* m, const Tensor& x) {
  Tensor logits = m->ForwardBatch(x);
  return Argmax(logits.data(), logits.size());
}

double Loss(Sequential* m, const Tensor& x, size_t label) {
  return SoftmaxCrossEntropy(m->ForwardBatch(x), label).loss;
}

double Accuracy(Sequential* m, const Blobs& b) {
  size_t correct = 0;
  for (size_t i = 0; i < b.xs.size(); ++i) {
    if (Predict(m, b.xs[i]) == b.ys[i]) ++correct;
  }
  return static_cast<double>(correct) / b.xs.size();
}

// Plain SGD with classical momentum on the flat parameter vector, one
// example per step: buf ← momentum·buf + g, w ← w − lr·buf.
class MomentumSgd {
 public:
  MomentumSgd(Sequential* model, float lr, float momentum)
      : model_(model),
        lr_(lr),
        momentum_(momentum),
        buf_(model->NumParams(), 0.0f),
        grad_(model->NumParams()) {}

  void Step(const Tensor& x, size_t label) {
    LossGrad lg = SoftmaxCrossEntropy(model_->ForwardBatch(x), label);
    model_->BackwardTo(lg.grad_logits, grad_.data());
    std::vector<float> w = model_->FlatParams();
    for (size_t i = 0; i < w.size(); ++i) {
      buf_[i] = momentum_ * buf_[i] + grad_[i];
      w[i] -= lr_ * buf_[i];
    }
    model_->SetParamsFrom(w.data());
  }

 private:
  Sequential* model_;
  float lr_;
  float momentum_;
  std::vector<float> buf_;
  std::vector<float> grad_;
};

TEST(TrainingTest, MlpFitsLinearlySeparableBlobs) {
  auto m = MakeMlp(2, 8, 2);
  SplitRng rng(11);
  m->InitParams(&rng);
  Blobs train = MakeBlobs(200, 1);
  Blobs test = MakeBlobs(200, 2);
  MomentumSgd sgd(m.get(), 0.05f, 0.9f);
  for (int epoch = 0; epoch < 10; ++epoch) {
    for (size_t i = 0; i < train.xs.size(); ++i) {
      sgd.Step(train.xs[i], train.ys[i]);
    }
  }
  EXPECT_GT(Accuracy(m.get(), test), 0.95);
}

TEST(TrainingTest, LossDecreasesMonotonicallyOnAverage) {
  auto m = MakeMlp(2, 8, 2);
  SplitRng rng(12);
  m->InitParams(&rng);
  Blobs train = MakeBlobs(100, 3);
  MomentumSgd sgd(m.get(), 0.05f, 0.0f);
  auto epoch_loss = [&] {
    double s = 0.0;
    for (size_t i = 0; i < train.xs.size(); ++i) {
      s += Loss(m.get(), train.xs[i], train.ys[i]);
    }
    return s / train.xs.size();
  };
  double before = epoch_loss();
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (size_t i = 0; i < train.xs.size(); ++i) {
      sgd.Step(train.xs[i], train.ys[i]);
    }
  }
  EXPECT_LT(epoch_loss(), before * 0.7);
}

TEST(TrainingTest, CnnFitsPatternImages) {
  // Two classes of 6x6 images: bright left half vs bright right half.
  SplitRng rng(13);
  auto make_image = [&](size_t label) {
    Tensor x({1, 1, 6, 6});
    for (size_t i = 0; i < 6; ++i) {
      for (size_t j = 0; j < 6; ++j) {
        double base = (label == 0) == (j < 3) ? 1.0 : -1.0;
        x[i * 6 + j] = static_cast<float>(base + rng.Gaussian(0.0, 0.3));
      }
    }
    return x;
  };
  auto m = MakeCnn(1, 4, 3, 2);
  m->InitParams(&rng);
  MomentumSgd sgd(m.get(), 0.02f, 0.9f);
  for (int step = 0; step < 300; ++step) {
    size_t label = step % 2;
    sgd.Step(make_image(label), label);
  }
  size_t correct = 0;
  const size_t kEval = 100;
  for (size_t i = 0; i < kEval; ++i) {
    size_t label = i % 2;
    if (Predict(m.get(), make_image(label)) == label) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / kEval, 0.9);
}

}  // namespace
}  // namespace nn
}  // namespace dpbr
