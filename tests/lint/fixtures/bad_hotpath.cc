// Known-bad fixture: allocation, locking and I/O inside lambdas passed
// to ParallelFor / ParallelForBlocked (the grow-only buffer rule
// from docs/architecture.md). The same constructs OUTSIDE a dispatch
// body are legal and must not fire.
// lint-as: src/fixture/bad_hotpath.cc

#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dpbr {

void ParallelFor(size_t begin, size_t end, void (*body)(size_t));
void ParallelForBlocked(size_t total, size_t block, void (*body)(size_t,
                                                                 size_t));

void GrowsInsideDispatch(std::vector<float>& out, size_t n) {
  out.reserve(n);  // legal: sized before the dispatch
  ParallelFor(0, n, [&](size_t i) {
    out.push_back(static_cast<float>(i));  // expect-lint: hotpath-alloc
    float* scratch = new float[8];         // expect-lint: hotpath-alloc
    delete[] scratch;
  });
}

void ResizesInsideBlockedDispatch(std::vector<double>& buf) {
  ParallelForBlocked(buf.size(), 64, [&](size_t lo, size_t hi) {
    std::vector<double> local;
    local.resize(hi - lo);  // expect-lint: hotpath-alloc
  });
}

void ConstructsSizedBuffersInsideDispatch(std::vector<float>& out,
                                          size_t dim) {
  ParallelForBlocked(out.size(), 64, [&](size_t lo, size_t hi) {
    std::vector<float> grads((hi - lo) * dim);  // expect-lint: hotpath-alloc
    std::vector<std::vector<int>> nested{{1, 2}};  // expect-lint: hotpath-alloc
    std::string label(hi - lo, 'x');  // expect-lint: hotpath-alloc
    out[lo] = std::vector<float>(dim, 1.0f)[0];  // expect-lint: hotpath-alloc
    out[lo] += grads[0] + static_cast<float>(label.size() + nested.size());
  });
}

struct Model {
  float Forward(float v) const { return v; }
};
using ModelFactory = std::function<std::unique_ptr<Model>()>;

void BuildsModelsInsideDispatch(const ModelFactory& factory_,
                                std::vector<float>& out) {
  ParallelFor(0, out.size(), [&](size_t i) {
    std::unique_ptr<Model> model = factory_();  // expect-lint: hotpath-alloc
    auto spare = std::make_unique<Model>();     // expect-lint: hotpath-alloc
    auto shared = std::make_shared<Model>();    // expect-lint: hotpath-alloc
    ModelFactory copy = factory_;               // expect-lint: hotpath-alloc
    out[i] = model->Forward(out[i]) + spare->Forward(0.0f) +
             shared->Forward(0.0f) + static_cast<float>(copy != nullptr);
  });
}

void TypeErasesInsideDispatch(std::vector<float>& out) {
  std::function<float(float)> shift = [](float v) { return v + 1.0f; };
  ParallelFor(0, out.size(), [&](size_t i) {
    std::function<float(float)> f = shift;  // expect-lint: hotpath-alloc
    out[i] = f(out[i]);
  });
}

void LocksInsideDispatch(std::vector<float>& out) {
  std::mutex mu;  // legal outside the body
  ParallelFor(0, out.size(), [&](size_t i) {
    std::lock_guard<std::mutex> hold(mu);  // expect-lint: hotpath-lock
    out[i] = 0.0f;
  });
}

void LogsInsideDispatch(const std::vector<float>& xs) {
  ParallelForBlocked(xs.size(), 128, [&](size_t lo, size_t hi) {
    printf("block [%zu, %zu)\n", lo, hi);  // expect-lint: hotpath-io
  });
}

}  // namespace dpbr
