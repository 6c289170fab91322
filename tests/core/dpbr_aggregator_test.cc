#include "core/dpbr_aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fl/upload.h"
#include "tensor/ops.h"

namespace dpbr {
namespace core {
namespace {

constexpr size_t kDim = 1500;
constexpr double kSigmaUp = 0.25;

// Writes an honest-protocol-shaped upload into `out` (kDim floats):
// dominant Gaussian noise plus a small component along `direction`.
void HonestUpload(uint64_t seed, const std::vector<float>& direction,
                  float* out, double signal = 0.2) {
  SplitRng rng(seed);
  rng.FillGaussian(out, kDim, kSigmaUp);
  ops::Axpy(static_cast<float>(signal), direction.data(), out, kDim);
}

std::vector<float> TrueGradientDirection() {
  SplitRng rng(777);
  std::vector<float> dir(kDim);
  rng.FillGaussian(dir.data(), kDim, 1.0);
  ops::NormalizeInPlace(dir.data(), kDim);
  return dir;
}

agg::AggregationContext Ctx(const std::vector<float>* server_grad,
                            double gamma) {
  agg::AggregationContext ctx;
  ctx.dim = kDim;
  ctx.sigma_upload = kSigmaUp;
  ctx.gamma = gamma;
  ctx.server_gradient = server_grad;
  ctx.round = 1;
  return ctx;
}

TEST(DpbrAggregatorTest, SelectsHonestRejectsInverted) {
  std::vector<float> dir = TrueGradientDirection();
  std::vector<float> server_grad = ops::Scaled(dir, 0.5f);

  const size_t kHonest = 8, kByz = 12;  // Byzantine majority
  fl::UploadArena uploads;
  uploads.Reset(kHonest + kByz, kDim);
  for (size_t i = 0; i < kHonest; ++i) {
    HonestUpload(100 + i, dir, uploads.Row(i));
  }
  // OptLMP-style forgeries: noise-camouflaged but anti-aligned.
  for (size_t i = 0; i < kByz; ++i) {
    HonestUpload(200 + i, dir, uploads.Row(kHonest + i), -0.5);
  }

  DpbrAggregator aggregator;
  double gamma = static_cast<double>(kHonest) / (kHonest + kByz);
  // Accumulate over several rounds: cumulative scores sharpen selection.
  Result<std::vector<float>> out = std::vector<float>{};
  for (int round = 0; round < 5; ++round) {
    fl::UploadArena rows = uploads;  // the first stage zeroes rejects
    out = aggregator.Aggregate(rows.span(), Ctx(&server_grad, gamma));
    ASSERT_TRUE(out.ok());
  }
  const DpbrRoundDiagnostics& diag = aggregator.last_round();
  ASSERT_EQ(diag.selected.size(), kHonest);  // ⌈γn⌉ = 8
  for (size_t idx : diag.selected) {
    EXPECT_LT(idx, kHonest) << "Byzantine upload selected";
  }
  // The aggregate points along the true direction.
  EXPECT_GT(ops::Dot(out.value(), dir), 0.0);
}

TEST(DpbrAggregatorTest, FirstStageZeroesOutOfBandUploads) {
  std::vector<float> dir = TrueGradientDirection();
  std::vector<float> server_grad = ops::Scaled(dir, 0.5f);
  fl::UploadArena uploads;
  uploads.Reset(5, kDim);
  for (size_t i = 0; i < 4; ++i) HonestUpload(10 + i, dir, uploads.Row(i));
  // An arbitrary huge upload (classical Byzantine value) — norm test
  // rejects it outright.
  std::fill(uploads.Row(4), uploads.Row(4) + kDim, 50.0f);

  DpbrAggregator aggregator;
  auto out = aggregator.Aggregate(uploads.span(), Ctx(&server_grad, 0.8));
  ASSERT_TRUE(out.ok());
  const DpbrRoundDiagnostics& diag = aggregator.last_round();
  EXPECT_FALSE(diag.first_stage_passed[4]);
  EXPECT_EQ(diag.first_stage.rejected_norm, 1u);
  // Even if index 4 were selected, its contribution is the zero vector;
  // the aggregate norm stays consistent with honest noise levels.
  EXPECT_LT(ops::Norm(out.value()), kSigmaUp * std::sqrt(kDim));
}

TEST(DpbrAggregatorTest, UpdateScaleVariants) {
  std::vector<float> server_grad(kDim, 0.0f);
  server_grad[0] = 1.0f;
  fl::UploadArena uploads;
  uploads.Reset(4, kDim);
  for (size_t i = 0; i < 4; ++i) uploads.Row(i)[0] = 1.0f;  // score 1

  ProtocolOptions over_total;
  over_total.enable_first_stage = false;  // isolate the scaling logic
  over_total.update_scale = UpdateScale::kOverTotal;
  DpbrAggregator a(over_total);
  auto ra = a.Aggregate(uploads.span(), Ctx(&server_grad, 0.5));
  ASSERT_TRUE(ra.ok());
  // 2 selected of 4 total: (1/4)·2 = 0.5.
  EXPECT_NEAR(ra.value()[0], 0.5f, 1e-6);

  ProtocolOptions over_selected = over_total;
  over_selected.update_scale = UpdateScale::kOverSelected;
  DpbrAggregator b(over_selected);
  auto rb = b.Aggregate(uploads.span(), Ctx(&server_grad, 0.5));
  ASSERT_TRUE(rb.ok());
  // (1/2)·2 = 1.
  EXPECT_NEAR(rb.value()[0], 1.0f, 1e-6);
}

TEST(DpbrAggregatorTest, FirstStageOnlyAblation) {
  ProtocolOptions opts;
  opts.enable_second_stage = false;
  DpbrAggregator aggregator(opts);
  EXPECT_FALSE(aggregator.NeedsServerGradient());

  std::vector<float> dir = TrueGradientDirection();
  fl::UploadArena uploads;
  uploads.Reset(6, kDim);
  for (size_t i = 0; i < 5; ++i) HonestUpload(30 + i, dir, uploads.Row(i));
  std::fill(uploads.Row(5), uploads.Row(5) + kDim, 50.0f);  // rejected
  auto out = aggregator.Aggregate(uploads.span(), Ctx(nullptr, 0.8));
  ASSERT_TRUE(out.ok());
  // Selected = exactly the stage-1 survivors (the loud upload is out;
  // honest-like uploads may lose one to the KS test's 5% false-positive
  // rate, so compare against the stage-1 report rather than a constant).
  const DpbrRoundDiagnostics& diag = aggregator.last_round();
  EXPECT_EQ(diag.selected.size(), diag.first_stage.accepted);
  EXPECT_GE(diag.selected.size(), 4u);
  EXPECT_FALSE(diag.first_stage_passed[5]);
  for (size_t idx : diag.selected) EXPECT_LT(idx, 5u);
}

TEST(DpbrAggregatorTest, RequiresSigmaForFirstStage) {
  DpbrAggregator aggregator;
  std::vector<float> server_grad(kDim, 1.0f);
  agg::AggregationContext ctx = Ctx(&server_grad, 0.5);
  ctx.sigma_upload = 0.0;
  std::vector<float> upload(kDim, 0.1f);
  auto out = aggregator.Aggregate(RowSpan(upload.data(), 1, kDim), ctx);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DpbrAggregatorTest, RequiresServerGradientForSecondStage) {
  DpbrAggregator aggregator;
  EXPECT_TRUE(aggregator.NeedsServerGradient());
  std::vector<float> upload(kDim);
  HonestUpload(1, TrueGradientDirection(), upload.data());
  auto out = aggregator.Aggregate(RowSpan(upload.data(), 1, kDim),
                                  Ctx(nullptr, 0.5));
  EXPECT_FALSE(out.ok());
}

TEST(DpbrAggregatorTest, ResetClearsCumulativeState) {
  std::vector<float> dir = TrueGradientDirection();
  std::vector<float> server_grad = ops::Scaled(dir, 1.0f);
  fl::UploadArena uploads;
  uploads.Reset(4, kDim);
  for (size_t i = 0; i < 4; ++i) HonestUpload(40 + i, dir, uploads.Row(i));
  DpbrAggregator aggregator;
  ASSERT_TRUE(
      aggregator.Aggregate(uploads.span(), Ctx(&server_grad, 0.5)).ok());
  EXPECT_FALSE(aggregator.second_stage().cumulative_scores().empty());
  aggregator.Reset();
  EXPECT_TRUE(aggregator.second_stage().cumulative_scores().empty());
}

// --- One pass per upload. Aggregate tests, zeroes and scores each row
// in one item, skipping the dot for a zeroed row when g_s is finite. It
// must equal the two-pass reference below — Apply, then SelectWorkers on
// the zeroed rows, then the sum of the selected rows — bit for bit in
// every output and in the arena it leaves, in every stage setting (a
// stage that is off drops out of the reference too).

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool SameArena(const fl::UploadArena& a, const fl::UploadArena& b) {
  return a.rows() == b.rows() &&
         std::memcmp(a.Row(0), b.Row(0),
                     a.rows() * a.dim() * sizeof(float)) == 0;
}

struct TwoPassReference {
  explicit TwoPassReference(const ProtocolOptions& opts)
      : options(opts), first(opts) {}

  ProtocolOptions options;
  FirstStageFilter first;
  SecondStageAggregator second;
  std::vector<bool> passed;
  FirstStageReport report;
  std::vector<size_t> selected;

  std::vector<float> Aggregate(RowSpan rows,
                               const agg::AggregationContext& ctx) {
    std::vector<FirstStageVerdict> v(rows.rows, FirstStageVerdict::kAccepted);
    if (options.enable_first_stage) {
      v = first.Apply(rows, ctx.sigma_upload, &report);
    }
    passed.clear();
    selected.clear();
    for (size_t i = 0; i < v.size(); ++i) {
      passed.push_back(v[i] == FirstStageVerdict::kAccepted);
      if (passed.back()) selected.push_back(i);
    }
    if (options.enable_second_stage) {
      Result<std::vector<size_t>> sel = second.SelectWorkers(
          rows, *ctx.server_gradient, ctx.gamma, ctx.client_ids);
      EXPECT_TRUE(sel.ok());
      selected = sel.ok() ? sel.value() : std::vector<size_t>{};
    }
    std::vector<float> out(rows.dim, 0.0f);
    for (size_t idx : selected) {
      ops::Axpy(1.0f, rows.Row(idx), out.data(), rows.dim);
    }
    // ProtocolOptions' default update scale: 1/|G_s|.
    double denom = static_cast<double>(std::max<size_t>(selected.size(), 1));
    ops::Scale(static_cast<float>(1.0 / denom), out.data(), rows.dim);
    return out;
  }
};

// One row of each kind the round meets, at dimension d: accepted honest
// rows, an anti-aligned one, NaN, +inf, -inf, a norm reject, a KS reject
// (±σ: the norm of a Gaussian row, far from its shape) and a zero row.
void FillMixedRows(size_t d, uint64_t seed, fl::UploadArena* arena) {
  const size_t kRows = 10;
  const float inf = std::numeric_limits<float>::infinity();
  arena->Reset(kRows, d);
  SplitRng dir_rng(seed);
  std::vector<float> dir(d);
  dir_rng.FillGaussian(dir.data(), d, 1.0);
  ops::NormalizeInPlace(dir.data(), d);
  for (size_t i = 0; i < kRows; ++i) {
    float* row = arena->Row(i);
    SplitRng rng(seed, {i});
    rng.FillGaussian(row, d, kSigmaUp);
    float signal = i == 3 ? -0.5f : 0.2f;
    ops::Axpy(signal, dir.data(), row, d);
  }
  arena->Row(4)[d / 2] = std::numeric_limits<float>::quiet_NaN();
  arena->Row(5)[0] = inf;
  arena->Row(6)[d - 1] = -inf;
  ops::Scale(3.0f, arena->Row(7), d);
  SplitRng sign_rng(seed, {99});
  for (size_t c = 0; c < d; ++c) {
    arena->Row(8)[c] = (sign_rng.Next64() & 1) != 0 ? kSigmaUp : -kSigmaUp;
  }
  std::fill(arena->Row(9), arena->Row(9) + d, 0.0f);
}

void ExpectOnePassMatchesTwoPass(size_t d, const std::vector<float>& gs,
                                 const std::vector<int>* ids,
                                 const ProtocolOptions& opts) {
  DpbrAggregator fused(opts);
  TwoPassReference ref(opts);
  for (int round = 1; round <= 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    fl::UploadArena rows;
    FillMixedRows(d, 500 + static_cast<uint64_t>(round), &rows);
    fl::UploadArena ref_rows = rows;
    agg::AggregationContext ctx = Ctx(&gs, 0.4);
    ctx.dim = d;
    ctx.round = round;
    ctx.client_ids = ids;
    Result<std::vector<float>> got = fused.Aggregate(rows.span(), ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<float> want = ref.Aggregate(ref_rows.span(), ctx);

    const DpbrRoundDiagnostics& diag = fused.last_round();
    EXPECT_EQ(diag.first_stage_passed, ref.passed);
    EXPECT_EQ(diag.first_stage.total, ref.report.total);
    EXPECT_EQ(diag.first_stage.accepted, ref.report.accepted);
    EXPECT_EQ(diag.first_stage.rejected_norm, ref.report.rejected_norm);
    EXPECT_EQ(diag.first_stage.rejected_ks, ref.report.rejected_ks);
    EXPECT_TRUE(SameArena(rows, ref_rows));
    EXPECT_TRUE(SameBytes(fused.second_stage().last_round_scores(),
                          ref.second.last_round_scores()));
    EXPECT_TRUE(SameBytes(fused.second_stage().cumulative_scores(),
                          ref.second.cumulative_scores()));
    EXPECT_EQ(diag.selected, ref.selected);
    EXPECT_TRUE(SameBytes(got.value(), want));
  }
}

TEST(DpbrOnePassTest, MatchesApplyThenSelectWorkersBitwise) {
  const size_t hw = std::max(2u, std::thread::hardware_concurrency());
  const float inf = std::numeric_limits<float>::infinity();
  // kDim exercises every verdict; d = 8 has a norm window starting at 0,
  // so the zero row passes the norm test there.
  for (size_t d : {kDim, size_t{8}}) {
    SplitRng rng(31, {d});
    std::vector<float> finite(d);
    rng.FillGaussian(finite.data(), d, 0.5);
    std::vector<float> with_inf = finite;
    with_inf[d / 3] = -inf;
    std::vector<float> with_nan = finite;
    with_nan[d - 1] = std::numeric_limits<float>::quiet_NaN();
    std::vector<int> ids;
    for (int i = 0; i < 10; ++i) ids.push_back(2 * (9 - i) + 1);
    ProtocolOptions first_only;
    first_only.enable_second_stage = false;
    ProtocolOptions second_only;
    second_only.enable_first_stage = false;
    for (size_t threads : {size_t{1}, size_t{2}, hw}) {
      ThreadPool pool(threads);
      ScopedPoolOverride route(&pool);
      for (const ProtocolOptions& opts :
           {ProtocolOptions{}, first_only, second_only}) {
        SCOPED_TRACE("d " + std::to_string(d) + ", pool " +
                     std::to_string(threads) + ", stages " +
                     (opts.enable_first_stage ? "1" : "") +
                     (opts.enable_second_stage ? "2" : ""));
        ExpectOnePassMatchesTwoPass(d, finite, nullptr, opts);
        ExpectOnePassMatchesTwoPass(d, finite, &ids, opts);
        ExpectOnePassMatchesTwoPass(d, with_inf, nullptr, opts);
        ExpectOnePassMatchesTwoPass(d, with_nan, &ids, opts);
      }
    }
  }
}

// A g_s of the wrong size fails before the first stage zeroes any row.
TEST(DpbrOnePassTest, WrongSizeServerGradientLeavesTheUploadsUntouched) {
  fl::UploadArena rows;
  FillMixedRows(kDim, 503, &rows);  // rows the first stage would zero
  const fl::UploadArena before = rows;
  for (size_t size : {size_t{0}, kDim - 1, kDim + 1}) {
    SCOPED_TRACE("g_s size " + std::to_string(size));
    std::vector<float> gs(size, 0.5f);
    DpbrAggregator aggregator;
    Result<std::vector<float>> got =
        aggregator.Aggregate(rows.span(), Ctx(&gs, 0.4));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(SameArena(rows, before));
    EXPECT_TRUE(aggregator.second_stage().cumulative_scores().empty());
  }
}

TEST(DpbrOnePassTest, MixedRowsMeetEveryVerdict) {
  // The rows above reach every branch of the pass at kDim.
  fl::UploadArena rows;
  FillMixedRows(kDim, 501, &rows);
  FirstStageReport report;
  FirstStageFilter(ProtocolOptions{}).Apply(rows.span(), kSigmaUp, &report);
  EXPECT_GE(report.accepted, 3u);
  EXPECT_GE(report.rejected_norm, 5u);  // NaN, ±inf, 3σ, zero
  EXPECT_GE(report.rejected_ks, 1u);    // ±σ
}

// --- A round with a non-finite g_s scores every row NaN or ±inf. It
// must add nothing to S: S after finite, non-finite, finite rounds equals
// S after the two finite rounds alone, with both stages on and with the
// second stage alone.

std::vector<double> CumulativeAfter(const ProtocolOptions& opts,
                                    const std::vector<const std::vector<float>*>&
                                        server_grads) {
  std::vector<float> dir = TrueGradientDirection();
  DpbrAggregator aggregator(opts);
  int round = 0;
  for (const std::vector<float>* gs : server_grads) {
    ++round;
    // The rows of a round depend only on its g_s's position among the
    // finite rounds, so both sequences see the same finite rounds.
    const uint64_t seed = gs->front() == 0.5f ? 900 : 950;
    fl::UploadArena rows;
    rows.Reset(6, kDim);
    for (size_t i = 0; i < 6; ++i) {
      HonestUpload(seed + i, dir, rows.Row(i), i == 5 ? -0.4 : 0.2);
    }
    agg::AggregationContext ctx = Ctx(gs, 0.5);
    ctx.round = round;
    Result<std::vector<float>> got = aggregator.Aggregate(rows.span(), ctx);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
  }
  return aggregator.second_stage().cumulative_scores();
}

TEST(DpbrNonFiniteRoundTest, AddsNothingToTheCumulativeScores) {
  const std::vector<float> dir = TrueGradientDirection();
  std::vector<float> first = ops::Scaled(dir, 1.0f);
  std::vector<float> last = ops::Scaled(dir, 0.7f);
  first[0] = 0.5f;  // marks the round's rows (see CumulativeAfter)
  last[0] = 0.25f;
  const float inf = std::numeric_limits<float>::infinity();
  ProtocolOptions both_stages;
  ProtocolOptions second_only;
  second_only.enable_first_stage = false;
  for (const ProtocolOptions& opts : {both_stages, second_only}) {
    const std::vector<double> want = CumulativeAfter(opts, {&first, &last});
    ASSERT_FALSE(want.empty());
    for (float bad : {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
      std::vector<float> broken = last;
      broken[kDim / 2] = bad;
      SCOPED_TRACE(std::string(opts.enable_first_stage ? "both stages"
                                                       : "second stage") +
                   ", g_s holding " + std::to_string(bad));
      const std::vector<double> got =
          CumulativeAfter(opts, {&first, &broken, &last});
      for (double v : got) EXPECT_TRUE(std::isfinite(v));
      EXPECT_TRUE(SameBytes(got, want));
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace dpbr
