// Known-clean fixture: constructs that sit right next to every banned
// pattern without crossing it, plus one of each suppression mechanism.
// The self-test demands ZERO findings here — any hit is a linter
// false-positive regression.
// lint-as: src/fixture/clean_kernel.cc

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dpbr {

void ParallelFor(size_t begin, size_t end, void (*body)(size_t));
void ParallelForBlocked(size_t total, size_t block, void (*body)(size_t,
                                                                 size_t));

// Identifiers that merely CONTAIN banned substrings are legal.
struct RandomizedResponse {
  double time_budget_ms = 0.0;  // data member, not a call
  int clocks = 0;
};

// Ordered containers are the deterministic default.
double SumScores(const std::map<int, double>& scores) {
  double total = 0.0;
  for (const auto& kv : scores) total += kv.second;
  return total;
}

// Allocation before the dispatch, arithmetic-only body: the blessed
// shape for every hot loop in src/.
void ScaleAll(std::vector<float>& xs, float a) {
  xs.reserve(xs.size());
  ParallelForBlocked(xs.size(), 4096, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) xs[i] *= a;
  });
}

// Buffers and models built before the dispatch and borrowed inside it:
// references, default-constructed (empty) containers, copy-less
// std::string views of existing storage, and calls on prebuilt models.
struct Model {
  float Forward(float v) const { return v; }
};
size_t ThisThreadSlot();

void BorrowsPrebuiltScratch(std::vector<float>& out, size_t slots,
                            size_t dim) {
  std::vector<std::vector<float>> scratch(slots, std::vector<float>(dim));
  std::vector<std::unique_ptr<Model>> models;
  models.push_back(std::make_unique<Model>());
  std::string tag(4, 'x');
  ParallelFor(0, out.size(), [&](size_t i) {
    std::vector<float>& row = scratch[ThisThreadSlot()];
    const std::string& name = tag;
    std::vector<double> unused;
    row[0] = models[0]->Forward(out[i]);
    out[i] = row[0] + static_cast<float>(name.size() + unused.size());
  });
}

// The grow-only thread-local panel idiom carries an inline waiver; the
// annotation names the check it silences.
void PanelKernel(size_t n) {
  ParallelForBlocked(n, 1, [&](size_t e0, size_t e1) {
    static thread_local std::vector<float> panel;
    // dpbr-lint: allow(hotpath-alloc) -- grow-only thread-local panel
    if (panel.size() < 64) panel.resize(64);
    for (size_t e = e0; e < e1; ++e) panel[e % 64] += 1.0f;
  });
}

}  // namespace dpbr
