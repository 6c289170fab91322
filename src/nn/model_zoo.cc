#include "nn/model_zoo.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/group_norm.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace dpbr {
namespace nn {
namespace {

// One Conv → ELU → GroupNorm stage (paper Table 7 rows). `pad` keeps
// spatial size when the stage sits inside a residual connection.
std::unique_ptr<Sequential> ConvStage(size_t in_ch, size_t out_ch,
                                      size_t kernel, size_t pad) {
  auto s = std::make_unique<Sequential>();
  s->Add(std::make_unique<Conv2d>(in_ch, out_ch, kernel, pad));
  s->Add(std::make_unique<Elu>());
  // GroupNorm has no affine parameters, which reproduces the paper's
  // reported d = 21802 for the MNIST CNN.
  s->Add(std::make_unique<GroupNorm>(4, out_ch));
  return s;
}

}  // namespace

std::unique_ptr<Sequential> MakeMlp(size_t input_dim, size_t hidden,
                                    size_t num_classes) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(input_dim, hidden));
  m->Add(std::make_unique<Elu>());
  m->Add(std::make_unique<Linear>(hidden, num_classes));
  return m;
}

std::unique_ptr<Sequential> MakeCnn(size_t in_channels, size_t channels,
                                    size_t kernel, size_t num_classes) {
  auto m = std::make_unique<Sequential>();
  m->Add(ConvStage(in_channels, channels, kernel, /*pad=*/0));
  m->Add(ConvStage(channels, channels, kernel, /*pad=*/(kernel - 1) / 2));
  m->Add(ConvStage(channels, channels, kernel, /*pad=*/(kernel - 1) / 2));
  m->Add(std::make_unique<AdaptiveAvgPool2d>(4, 4));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(channels * 16, 32));
  m->Add(std::make_unique<Elu>());
  m->Add(std::make_unique<Linear>(32, num_classes));
  return m;
}

std::unique_ptr<Sequential> MakeResidualCnn(size_t in_channels,
                                            size_t channels, size_t kernel,
                                            size_t num_classes) {
  auto m = std::make_unique<Sequential>();
  m->Add(ConvStage(in_channels, channels, kernel, /*pad=*/0));
  // Residual stage must preserve (C, H, W): same channels, same padding.
  m->Add(std::make_unique<Residual>(
      ConvStage(channels, channels, kernel, /*pad=*/(kernel - 1) / 2)));
  m->Add(ConvStage(channels, channels, kernel, /*pad=*/(kernel - 1) / 2));
  m->Add(std::make_unique<AdaptiveAvgPool2d>(4, 4));
  m->Add(std::make_unique<Flatten>());
  m->Add(std::make_unique<Linear>(channels * 16, 32));
  m->Add(std::make_unique<Elu>());
  m->Add(std::make_unique<Linear>(32, num_classes));
  return m;
}

ModelFactory MlpFactory(size_t input_dim, size_t hidden, size_t num_classes) {
  return [=] { return MakeMlp(input_dim, hidden, num_classes); };
}

ModelFactory CnnFactory(size_t in_channels, size_t channels, size_t kernel,
                        size_t num_classes) {
  return [=] { return MakeCnn(in_channels, channels, kernel, num_classes); };
}

ModelFactory ResidualCnnFactory(size_t in_channels, size_t channels,
                                size_t kernel, size_t num_classes) {
  return [=] {
    return MakeResidualCnn(in_channels, channels, kernel, num_classes);
  };
}

}  // namespace nn
}  // namespace dpbr
