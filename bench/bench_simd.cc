// SIMD-vs-scalar microbenchmarks (google-benchmark) for the dispatched
// kernel layer: each hot kernel runs twice — once on the active (best
// detected) table and once pinned to the scalar reference via
// ScopedForceIsa — so the ratio between the pair is machine-independent
// and gateable. scripts/check_bench_regression.py enforces >= 1.5x
// floors on the GEMM microkernel, the Krum distance scan and the
// pipelined ziggurat fill (the GEMM tile pairs, which time the raw table
// entries at the CNN's conv2 shapes, are reported but ungated).
//
// Before timing, main() asserts the active table agrees bitwise with
// the scalar reference on a dot/axpy spot check, mirroring the
// determinism preambles of bench_micro and bench_nn.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/gemm.h"

namespace {

using namespace dpbr;

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  SplitRng rng(seed);
  std::vector<float> v(n);
  rng.FillGaussian(v.data(), n, 1.0);
  return v;
}

// --- GEMM microkernel at the conv-lowered acceptance shape:
// (32 x 27) . (27 x 1024), the same shape BM_GemmConvShape times.

void GemmConvShape(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedForceIsa force(level);
  constexpr size_t m = 32, k = 27, n = 1024;
  std::vector<float> a = RandomVec(m * k, 9);
  std::vector<float> b = RandomVec(k * n, 10);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    nn::GemmNN(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

void BM_SimdGemmConvShape(benchmark::State& state) {
  GemmConvShape(state, simd::DetectedIsa());
}
BENCHMARK(BM_SimdGemmConvShape)->Unit(benchmark::kMicrosecond);

void BM_ScalarGemmConvShape(benchmark::State& state) {
  GemmConvShape(state, simd::IsaLevel::kScalar);
}
BENCHMARK(BM_ScalarGemmConvShape)->Unit(benchmark::kMicrosecond);

// --- GEMM tile kernels at the residual/honest CNN's conv2 shapes
// (16→16 channels, k=5, 12×12 output, one example): forward NN
// (16×400)·(400×144), the dCol TN panel (400×16)ᵀ-read·(16×144), and the
// dW NT (16×144)·(400×144)ᵀ. Ungated: per-tier tile throughput.

struct TileShape {
  size_t m, k, n;
};
constexpr TileShape kTileNN = {16, 400, 144};
constexpr TileShape kTileTN = {400, 16, 144};
constexpr TileShape kTileNT = {16, 144, 400};

void GemmTileNN(benchmark::State& state, simd::IsaLevel level, bool tn) {
  simd::ScopedForceIsa force(level);
  const simd::SimdKernels& kern = simd::Kernels();
  const TileShape s = tn ? kTileTN : kTileNN;
  std::vector<float> a = RandomVec(s.m * s.k, 41);
  std::vector<float> b = RandomVec(s.k * s.n, 42);
  std::vector<float> c(s.m * s.n);
  // NN reads A row-major (m×k); TN reads a row-major k×m A transposed.
  size_t a_rs = tn ? 1 : s.k;
  size_t a_cs = tn ? s.m : 1;
  for (auto _ : state) {
    kern.gemm_nn_tile_f32(s.m, s.n, s.k, a.data(), a_rs, a_cs, b.data(),
                          s.n, nullptr, c.data(), s.n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
}

void GemmTileNT(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedForceIsa force(level);
  const simd::SimdKernels& kern = simd::Kernels();
  const TileShape s = kTileNT;
  std::vector<float> a = RandomVec(s.m * s.k, 43);
  std::vector<float> b = RandomVec(s.n * s.k, 44);
  std::vector<float> c(s.m * s.n);
  for (auto _ : state) {
    kern.gemm_nt_tile_f32(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                          false, c.data(), s.n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * s.m * s.k * s.n);
}

void BM_SimdGemmTileNN(benchmark::State& state) {
  GemmTileNN(state, simd::DetectedIsa(), false);
}
BENCHMARK(BM_SimdGemmTileNN)->Unit(benchmark::kMicrosecond);

void BM_ScalarGemmTileNN(benchmark::State& state) {
  GemmTileNN(state, simd::IsaLevel::kScalar, false);
}
BENCHMARK(BM_ScalarGemmTileNN)->Unit(benchmark::kMicrosecond);

void BM_SimdGemmTileTN(benchmark::State& state) {
  GemmTileNN(state, simd::DetectedIsa(), true);
}
BENCHMARK(BM_SimdGemmTileTN)->Unit(benchmark::kMicrosecond);

void BM_ScalarGemmTileTN(benchmark::State& state) {
  GemmTileNN(state, simd::IsaLevel::kScalar, true);
}
BENCHMARK(BM_ScalarGemmTileTN)->Unit(benchmark::kMicrosecond);

void BM_SimdGemmTileNT(benchmark::State& state) {
  GemmTileNT(state, simd::DetectedIsa());
}
BENCHMARK(BM_SimdGemmTileNT)->Unit(benchmark::kMicrosecond);

void BM_ScalarGemmTileNT(benchmark::State& state) {
  GemmTileNT(state, simd::IsaLevel::kScalar);
}
BENCHMARK(BM_ScalarGemmTileNT)->Unit(benchmark::kMicrosecond);

// --- Krum distance scan: one pairwise distsq8_f64 over an
// acceptance-scale upload row (100k coordinates), the unit of work
// inside the Krum distance-matrix tiles.

constexpr size_t kDim = 100000;

void KrumDistScan(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedForceIsa force(level);
  const simd::SimdKernels& kern = simd::Kernels();
  std::vector<float> a = RandomVec(kDim, 33);
  std::vector<float> b = RandomVec(kDim, 34);
  for (auto _ : state) {
    double d = kern.distsq8_f64(a.data(), b.data(), kDim);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * kDim);
}

void BM_SimdKrumDistScan(benchmark::State& state) {
  KrumDistScan(state, simd::DetectedIsa());
}
BENCHMARK(BM_SimdKrumDistScan)->Unit(benchmark::kMicrosecond);

void BM_ScalarKrumDistScan(benchmark::State& state) {
  KrumDistScan(state, simd::IsaLevel::kScalar);
}
BENCHMARK(BM_ScalarKrumDistScan)->Unit(benchmark::kMicrosecond);

// --- Ziggurat bulk fill (1M draws): the batched fast-path kernel
// against the scalar rejection loop, same output stream bit for bit.

constexpr size_t kFillN = size_t{1} << 20;

void ZigguratFill(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedForceIsa force(level);
  std::vector<float> out(kFillN);
  SplitRng rng(77, {1});
  for (auto _ : state) {
    rng.FillGaussian(out.data(), kFillN, 1.0);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kFillN);
}

void BM_SimdZigguratFill(benchmark::State& state) {
  ZigguratFill(state, simd::DetectedIsa());
}
BENCHMARK(BM_SimdZigguratFill)->Unit(benchmark::kMillisecond);

void BM_ScalarZigguratFill(benchmark::State& state) {
  ZigguratFill(state, simd::IsaLevel::kScalar);
}
BENCHMARK(BM_ScalarZigguratFill)->Unit(benchmark::kMillisecond);

// Spot-checks the bitwise dispatch contract before timing anything, so
// a broken tier fails loudly here instead of publishing bogus ratios.
void CheckDispatchBitwise() {
  const simd::SimdKernels& active = simd::Kernels();
  const simd::SimdKernels* scalar = simd::KernelsFor(simd::IsaLevel::kScalar);
  const size_t n = 1237;
  std::vector<float> a = RandomVec(n, 1), b = RandomVec(n, 2);
  // One dot8 fold each, as a 1×1 NT tile.
  float da = 0.0f, ds = 0.0f;
  active.gemm_nt_tile_f32(1, 1, n, a.data(), n, b.data(), n,
                          /*accumulate=*/false, &da, 1);
  scalar->gemm_nt_tile_f32(1, 1, n, a.data(), n, b.data(), n,
                           /*accumulate=*/false, &ds, 1);
  std::vector<float> ya = a, ys = a;
  active.axpy_f32(0.7f, b.data(), ya.data(), n);
  scalar->axpy_f32(0.7f, b.data(), ys.data(), n);
  if (std::memcmp(&da, &ds, sizeof(float)) != 0 ||
      std::memcmp(ya.data(), ys.data(), n * sizeof(float)) != 0) {
    std::fprintf(stderr,
                 "FATAL: %s kernels disagree with the scalar reference\n",
                 simd::IsaName(active.isa));
    std::exit(1);
  }
  std::printf("simd dispatch: active tier %s (detected %s)\n",
              simd::IsaName(simd::ActiveIsa()),
              simd::IsaName(simd::DetectedIsa()));
}

}  // namespace

int main(int argc, char** argv) {
  CheckDispatchBitwise();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
