// Arena invariants: for EVERY aggregation rule, aggregating a zero-copy
// span view of a contiguous UploadArena gives bitwise the same output
// under any thread-pool size; for the dpbr rule, identity client ids are
// indistinguishable from none.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "aggregators/fltrust.h"
#include "aggregators/krum.h"
#include "aggregators/mean.h"
#include "aggregators/median.h"
#include "aggregators/norm_bound.h"
#include "aggregators/rfa.h"
#include "aggregators/sign_sgd.h"
#include "aggregators/trimmed_mean.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dpbr_aggregator.h"
#include "fl/upload.h"

namespace dpbr {
namespace agg {
namespace {

// kDim > 1024 so the coordinate-selection rules split into several
// column tiles (SelectionTileWidth caps a tile at 1024 columns).
constexpr size_t kN = 12;
constexpr size_t kDim = 2050;
constexpr int kRounds = 3;

fl::UploadArena MakeArena(size_t n, size_t dim, uint64_t seed) {
  fl::UploadArena arena;
  arena.Reset(n, dim);
  for (size_t i = 0; i < n; ++i) {
    SplitRng rng(seed, {0xA3E4A, i});
    rng.FillGaussian(arena.Row(i), dim, 1.0);
  }
  return arena;
}

struct Rule {
  std::string name;
  std::function<AggregatorPtr()> make;
};

std::vector<Rule> AllRules() {
  std::vector<Rule> rules;
  rules.push_back({"mean", [] { return std::make_unique<MeanAggregator>(); }});
  rules.push_back({"median", [] {
                     return std::make_unique<CoordinateMedianAggregator>();
                   }});
  rules.push_back({"trimmed_mean", [] {
                     return std::make_unique<TrimmedMeanAggregator>(0.2);
                   }});
  rules.push_back({"krum", [] { return std::make_unique<KrumAggregator>(3); }});
  rules.push_back({"rfa", [] { return std::make_unique<RfaAggregator>(); }});
  rules.push_back(
      {"fltrust", [] { return std::make_unique<FlTrustAggregator>(); }});
  rules.push_back(
      {"sign_sgd", [] { return std::make_unique<SignSgdAggregator>(); }});
  rules.push_back(
      {"norm_bound", [] { return std::make_unique<NormBoundAggregator>(); }});
  rules.push_back({"dpbr", [] {
                     return AggregatorPtr(new core::DpbrAggregator());
                   }});
  return rules;
}

AggregationContext Ctx(const std::vector<float>* server_grad, int round) {
  AggregationContext ctx;
  ctx.dim = kDim;
  ctx.gamma = 0.5;
  ctx.sigma_upload = 0.1;
  ctx.round = round;
  ctx.server_gradient = server_grad;
  return ctx;
}

TEST(ArenaEquivalenceTest, EveryRulePoolSizeInvariantOnArena) {
  // The span outputs must not depend on how many threads aggregate them.
  // Reference outputs under a single-thread pool...
  std::vector<std::vector<std::vector<float>>> ref;
  {
    ThreadPool pool(1);
    ScopedPoolOverride override(&pool);
    for (const Rule& rule : AllRules()) {
      AggregatorPtr agg = rule.make();
      std::vector<float> server_grad(kDim, 0.25f);
      ref.push_back({});
      for (int round = 1; round <= kRounds; ++round) {
        fl::UploadArena arena =
            MakeArena(kN, kDim, 2000 + static_cast<uint64_t>(round));
        auto r = agg->Aggregate(arena.span(), Ctx(&server_grad, round));
        ASSERT_TRUE(r.ok()) << rule.name;
        ref.back().push_back(std::move(r).value());
      }
    }
  }
  // ...must reproduce bit-for-bit under a wide pool.
  {
    ThreadPool pool(8);
    ScopedPoolOverride override(&pool);
    std::vector<Rule> rules = AllRules();
    for (size_t k = 0; k < rules.size(); ++k) {
      AggregatorPtr agg = rules[k].make();
      std::vector<float> server_grad(kDim, 0.25f);
      for (int round = 1; round <= kRounds; ++round) {
        fl::UploadArena arena =
            MakeArena(kN, kDim, 2000 + static_cast<uint64_t>(round));
        auto r = agg->Aggregate(arena.span(), Ctx(&server_grad, round));
        ASSERT_TRUE(r.ok()) << rules[k].name;
        EXPECT_EQ(0, std::memcmp(ref[k][round - 1].data(), r.value().data(),
                                 kDim * sizeof(float)))
            << rules[k].name << " depends on pool size at round " << round;
      }
    }
  }
}

TEST(ArenaEquivalenceTest, IdentityClientIdsMatchPositionalPath) {
  // Passing client_ids == {0, 1, ..., n-1} must be indistinguishable from
  // passing none: positions ARE the ids in the full-participation round.
  std::vector<float> server_grad(kDim, 0.25f);
  std::vector<int> ids(kN);
  std::iota(ids.begin(), ids.end(), 0);

  AggregatorPtr positional(new core::DpbrAggregator());
  AggregatorPtr id_keyed(new core::DpbrAggregator());
  for (int round = 1; round <= kRounds; ++round) {
    // Each path may zero rows in place, so each gets its own arena.
    fl::UploadArena a =
        MakeArena(kN, kDim, 3000 + static_cast<uint64_t>(round));
    fl::UploadArena b = a;
    AggregationContext ctx = Ctx(&server_grad, round);
    auto ref = positional->Aggregate(a.span(), ctx);
    ctx.client_ids = &ids;
    auto got = id_keyed->Aggregate(b.span(), ctx);
    ASSERT_TRUE(ref.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(0, std::memcmp(ref.value().data(), got.value().data(),
                             kDim * sizeof(float)))
        << "round " << round;
  }
}

TEST(ArenaEquivalenceTest, TileWidthShrinksWithClientCount) {
  // The column-tile budget keeps gather scratch bounded (~4 MiB) as the
  // client count grows; the width must stay within [1, 1024] columns.
  EXPECT_EQ(SelectionTileWidth(1), 1024u);
  EXPECT_EQ(SelectionTileWidth(1024), 1024u);
  EXPECT_EQ(SelectionTileWidth(10000), (size_t{1} << 20) / 10000);
  EXPECT_EQ(SelectionTileWidth(100000), 10u);
  EXPECT_GE(SelectionTileWidth(size_t{1} << 40), 1u);
}

}  // namespace
}  // namespace agg
}  // namespace dpbr
