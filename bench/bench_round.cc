// Round-scale benchmarks (google-benchmark): the contiguous upload
// arena at n = 1k / 10k / 100k clients.
//
// Two hot paths, both gated by scripts/check_bench_regression.py:
//
//   BM_RoundUpload      Reset + every worker writing its row in place —
//                       the full upload fan-in. Steady-state must be
//                       allocation-free (the arena is grow-only), so
//                       per-item time must stay flat in n.
//   BM_AggregateArena   Coordinate-median aggregation over the arena
//                       span — the streaming chunked column-major tile
//                       selection (aggregators/median.cc). This is the
//                       rule whose naive form (materialize one n-vector
//                       per coordinate serially) scales worst, so it is
//                       the one the ratchet watches.
//
// Krum is deliberately absent at this scale: it is O(n²·d) in the
// pairwise distance matrix and is benched at protocol sizes in
// bench_micro. See docs/benchmarks.md.

#include <benchmark/benchmark.h>

#include "aggregators/median.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fl/upload.h"

namespace {

using namespace dpbr;

// Model dimension for the scale benches: big enough that a row write is
// a real memcpy-scale operation, small enough that the 100k arena
// (100k x 256 floats = 100 MiB) fits the CI runner comfortably.
constexpr size_t kDim = 256;

// Writes row i the way a worker does: a keyed per-worker stream, so the
// fill is schedule-independent and rounds are reproducible.
void FillRow(fl::UploadArena& arena, size_t i, uint64_t round) {
  SplitRng rng(17, {round, i});
  rng.FillGaussian(arena.Row(i), arena.dim(), 0.3);
}

void BM_RoundUpload(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  fl::UploadArena arena;
  arena.Reset(n, kDim);  // pre-size: steady state reuses capacity
  uint64_t round = 0;
  for (auto _ : state) {
    arena.Reset(n, kDim);
    ParallelFor(0, n, [&](size_t i) { FillRow(arena, i, round); });
    benchmark::DoNotOptimize(arena.Row(0));
    ++round;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * kDim));
  state.counters["arena_MiB"] =
      static_cast<double>(arena.capacity_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_RoundUpload)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AggregateArena(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  fl::UploadArena arena;
  arena.Reset(n, kDim);
  ParallelFor(0, n, [&](size_t i) { FillRow(arena, i, 0); });
  agg::CoordinateMedianAggregator rule;
  agg::AggregationContext ctx;
  ctx.dim = kDim;
  for (auto _ : state) {
    auto out = rule.Aggregate(arena.span(), ctx);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(n * kDim));
  state.counters["tile_cols"] =
      static_cast<double>(agg::SelectionTileWidth(n));
}
BENCHMARK(BM_AggregateArena)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
