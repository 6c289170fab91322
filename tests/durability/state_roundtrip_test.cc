// State serialization round trips: every piece of cross-round state the
// durable trainer snapshots must decode back bitwise-identical, and every
// corrupt encoding must fail with a Status instead of crashing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "aggregators/mean.h"
#include "common/rng.h"
#include "core/dpbr_aggregator.h"
#include "core/second_stage.h"
#include "dp/rdp_accountant.h"
#include "dp/spent_ledger.h"
#include "durability/bytes.h"
#include "fl/round_state.h"

namespace dpbr {
namespace {

using durability::ByteReader;
using durability::ByteWriter;

// --- Byte layer ---

TEST(BytesTest, RoundTripsEveryType) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutDouble(-0.0);
  w.PutDouble(std::numeric_limits<double>::quiet_NaN());
  w.PutFloatVec({1.5f, -2.25f, 0.0f});
  w.PutDoubleVec({3.141592653589793, -1e300});
  w.PutIntVec({-1, 0, 7});
  w.PutString(std::string("bin\0ary", 7));
  std::string buf = w.Take();

  ByteReader r(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 1.0;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.GetU32(&u32).ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(r.GetU64(&u64).ok());
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(r.GetI64(&i64).ok());
  EXPECT_EQ(i64, -42);
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_TRUE(d == 0.0 && std::signbit(d));  // -0.0 preserved bitwise
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_TRUE(std::isnan(d));
  std::vector<float> fv;
  ASSERT_TRUE(r.GetFloatVec(&fv).ok());
  EXPECT_EQ(fv, (std::vector<float>{1.5f, -2.25f, 0.0f}));
  std::vector<double> dv;
  ASSERT_TRUE(r.GetDoubleVec(&dv).ok());
  EXPECT_EQ(dv, (std::vector<double>{3.141592653589793, -1e300}));
  std::vector<int> iv;
  ASSERT_TRUE(r.GetIntVec(&iv).ok());
  EXPECT_EQ(iv, (std::vector<int>{-1, 0, 7}));
  std::string s;
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, std::string("bin\0ary", 7));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, UnderflowIsOutOfRange) {
  ByteWriter w;
  w.PutU32(7);
  std::string buf = w.Take();
  ByteReader r(buf);
  uint64_t u64 = 0;
  EXPECT_EQ(r.GetU64(&u64).code(), StatusCode::kOutOfRange);
}

TEST(BytesTest, CorruptCountFailsInsteadOfAllocating) {
  ByteWriter w;
  w.PutU64(std::numeric_limits<uint64_t>::max());  // forged element count
  std::string buf = w.Take();
  ByteReader r(buf);
  std::vector<float> fv;
  EXPECT_FALSE(r.GetFloatVec(&fv).ok());
  EXPECT_TRUE(fv.empty());
}

// --- SplitRng state capture ---

TEST(RngStateTest, FromStateContinuesTheStream) {
  SplitRng original(123, {7, 9});
  for (int i = 0; i < 10; ++i) original.Next64();
  SplitRng resumed = SplitRng::FromState(original.state_key(),
                                         original.state_counter());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(original.Next64(), resumed.Next64());
  }
}

TEST(RngStateTest, StateReflectsConsumedDraws) {
  SplitRng rng(5);
  uint64_t c0 = rng.state_counter();
  rng.Next64();
  rng.Next64();
  EXPECT_EQ(rng.state_counter(), c0 + 2);
}

// --- Spent ledger ---

TEST(SpentLedgerTest, RoundTripsBitwise) {
  dp::SpentLedger ledger(0.5, 0.01, 3.5, 1e-5);
  for (int r = 1; r <= 17; ++r) ledger.ChargeRound(r);
  ByteWriter w;
  ledger.EncodeTo(&w);
  std::string buf = w.Take();
  ByteReader r(buf);
  auto decoded = dp::SpentLedger::DecodeFrom(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rounds_charged(), 17);
  EXPECT_EQ(decoded.value().last_round(), 17);
  EXPECT_EQ(decoded.value().q_client(), 0.5);
  EXPECT_EQ(decoded.value().q_record(), 0.01);
  EXPECT_EQ(decoded.value().noise_multiplier(), 3.5);
  EXPECT_EQ(decoded.value().delta(), 1e-5);
  // Re-encoding the decoded ledger reproduces the bytes exactly.
  ByteWriter w2;
  decoded.value().EncodeTo(&w2);
  EXPECT_EQ(w2.data(), buf);
}

TEST(SpentLedgerTest, OutOfRangeRateOrNoiseFailsToDecode) {
  struct Case {
    double q_client;
    double q_record;
    double noise_multiplier;
    const char* field;
  };
  const double nan = std::nan("");
  const Case cases[] = {{2.0, 0.05, 2.0, "q_client"},
                        {-0.5, 0.05, 2.0, "q_client"},
                        {nan, 0.05, 2.0, "q_client"},
                        {0.5, 1.5, 2.0, "q_record"},
                        {0.5, -0.1, 2.0, "q_record"},
                        {0.5, nan, 2.0, "q_record"},
                        {0.5, 0.05, -1.0, "noise multiplier"},
                        {0.5, 0.05, nan, "noise multiplier"}};
  for (const Case& c : cases) {
    dp::SpentLedger ledger(c.q_client, c.q_record, c.noise_multiplier, 1e-5);
    ledger.ChargeRound(1);
    ByteWriter w;
    ledger.EncodeTo(&w);
    std::string buf = w.Take();
    ByteReader r(buf);
    auto decoded = dp::SpentLedger::DecodeFrom(&r);
    ASSERT_FALSE(decoded.ok()) << c.field << " case";
    EXPECT_NE(decoded.status().message().find(c.field), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SpentLedgerTest, EpsilonMatchesAccountant) {
  dp::SpentLedger ledger(1.0, 0.05, 2.0, 1e-5);
  for (int r = 1; r <= 40; ++r) ledger.ChargeRound(r);
  auto eps = ledger.CurrentEpsilon();
  ASSERT_TRUE(eps.ok());
  auto direct = dp::ComputeEpsilon(0.05, 2.0, 40, 1e-5);
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(eps.value(), direct.value());
}

TEST(SpentLedgerTest, EmptyAndNonDpEdges) {
  dp::SpentLedger fresh(1.0, 0.05, 2.0, 1e-5);
  auto eps = fresh.CurrentEpsilon();
  ASSERT_TRUE(eps.ok());
  EXPECT_EQ(eps.value(), 0.0);

  dp::SpentLedger non_dp;
  non_dp.ChargeRound(1);
  EXPECT_FALSE(non_dp.dp_enabled());
  auto inf = non_dp.CurrentEpsilon();
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(std::isinf(inf.value()));
}

// --- Second stage: serialize → Reset → restore ---

// One-coordinate uploads: `values` is itself the n x 1 row block. A
// braced temporary argument lives through the enclosing call.
ConstRowSpan ScalarUploads(const std::vector<float>& values) {
  return ConstRowSpan(values.data(), values.size(), 1);
}

TEST(SecondStageStateTest, RestoreReproducesCumulativeScores) {
  core::SecondStageAggregator s;
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({5, 5, 1, -3}), {1.0f}, 0.5)
                  .ok());
  ASSERT_TRUE(s.SelectWorkers(ScalarUploads({4, 6, 2, -1}), {1.0f}, 0.5)
                  .ok());
  std::vector<double> saved = s.cumulative_scores();
  ASSERT_FALSE(saved.empty());

  s.Reset();
  EXPECT_TRUE(s.cumulative_scores().empty());
  s.RestoreScores(saved);
  EXPECT_EQ(s.cumulative_scores(), saved);

  // The restored aggregator continues exactly like one that never paused.
  core::SecondStageAggregator reference;
  ASSERT_TRUE(reference
                  .SelectWorkers(ScalarUploads({5, 5, 1, -3}), {1.0f}, 0.5)
                  .ok());
  ASSERT_TRUE(reference
                  .SelectWorkers(ScalarUploads({4, 6, 2, -1}), {1.0f}, 0.5)
                  .ok());
  auto next_restored =
      s.SelectWorkers(ScalarUploads({3, 3, 9, 0}), {1.0f}, 0.5);
  auto next_reference =
      reference.SelectWorkers(ScalarUploads({3, 3, 9, 0}), {1.0f}, 0.5);
  ASSERT_TRUE(next_restored.ok());
  ASSERT_TRUE(next_reference.ok());
  EXPECT_EQ(next_restored.value(), next_reference.value());
  EXPECT_EQ(s.cumulative_scores(), reference.cumulative_scores());
}

TEST(SecondStageStateTest, RestoredScoresKeepGrowingWithClientIds) {
  // Grow S via stable client ids (Poisson-subsampled cohorts), snapshot,
  // restore, then present a cohort with a larger max id: S must continue
  // the grow-to-largest-cohort sizing from the restored length.
  core::SecondStageAggregator s;
  std::vector<float> storage = {5.0f, 4.0f};
  ConstRowSpan span(storage.data(), 2, 1);
  std::vector<int> ids = {0, 3};
  ASSERT_TRUE(s.SelectWorkers(span, {1.0f}, 1.0, &ids).ok());
  ASSERT_EQ(s.cumulative_scores().size(), 4u);  // grew to max id 3

  std::vector<double> saved = s.cumulative_scores();
  s.Reset();
  s.RestoreScores(saved);

  std::vector<int> wider_ids = {2, 6};
  ASSERT_TRUE(s.SelectWorkers(span, {1.0f}, 1.0, &wider_ids).ok());
  EXPECT_EQ(s.cumulative_scores().size(), 7u);  // grew to max id 6
  // Restored prefix untouched where this round didn't score.
  EXPECT_EQ(s.cumulative_scores()[0], saved[0]);
  EXPECT_EQ(s.cumulative_scores()[3], saved[3]);
}

// --- Aggregator SaveState/RestoreState ---

TEST(AggregatorStateTest, DpbrRoundTripsSecondStageScores) {
  core::ProtocolOptions opts;
  opts.enable_first_stage = false;  // isolate the stateful second stage
  core::DpbrAggregator a(opts);
  agg::AggregationContext ctx;
  ctx.dim = 1;
  ctx.gamma = 0.5;
  ctx.round = 1;
  std::vector<float> grad = {1.0f};
  ctx.server_gradient = &grad;
  std::vector<float> uploads = {5, 5, 1, -3};
  ASSERT_TRUE(a.Aggregate(RowSpan(uploads.data(), 4, 1), ctx).ok());
  std::vector<double> before = a.second_stage().cumulative_scores();
  ASSERT_FALSE(before.empty());

  std::string blob;
  ASSERT_TRUE(a.SaveState(&blob).ok());
  a.Reset();
  EXPECT_TRUE(a.second_stage().cumulative_scores().empty());
  ASSERT_TRUE(a.RestoreState(blob).ok());
  EXPECT_EQ(a.second_stage().cumulative_scores(), before);
}

TEST(AggregatorStateTest, DpbrRejectsCorruptBlob) {
  core::DpbrAggregator a;
  std::string blob;
  ASSERT_TRUE(a.SaveState(&blob).ok());
  EXPECT_FALSE(a.RestoreState(blob + "trailing").ok());
  EXPECT_FALSE(a.RestoreState("short").ok());
}

TEST(AggregatorStateTest, StatelessDefaultRejectsForeignState) {
  agg::MeanAggregator mean;
  std::string blob;
  ASSERT_TRUE(mean.SaveState(&blob).ok());
  EXPECT_TRUE(blob.empty());
  EXPECT_TRUE(mean.RestoreState("").ok());
  EXPECT_FALSE(mean.RestoreState("stateful-bytes").ok());
}

// --- Round state container ---

fl::PersistentRoundState SampleState() {
  fl::PersistentRoundState state;
  state.fingerprint.seed = 42;
  state.fingerprint.num_honest = 8;
  state.fingerprint.num_byzantine = 2;
  state.fingerprint.epochs = 4;
  state.fingerprint.batch_size = 8;
  state.fingerprint.total_rounds = 100;
  state.fingerprint.dim = 3;
  state.fingerprint.epsilon = 2.0;
  state.fingerprint.client_sampling_rate = 0.5;
  state.fingerprint.momentum_reset = 1;
  state.fingerprint.iid = 1;
  state.completed_round = 57;
  state.model_params = {0.5f, -1.25f, 3.0f};
  state.honest_momentum = {{{1.0f, 2.0f, 3.0f}, {4.0f, 5.0f, 6.0f}},
                           {{-1.0f, 0.0f, 1.0f}, {0.5f, 0.5f, 0.5f}}};
  state.poisoned_momentum = {{{9.0f, 8.0f, 7.0f}}};
  state.worker_rng_keys = {111, 222, 333};
  state.aggregator_state = std::string("agg\0state", 9);
  state.ledger = dp::SpentLedger(0.5, 0.04, 3.0, 1e-5);
  for (int r = 1; r <= 57; ++r) state.ledger.ChargeRound(r);
  state.history.evals = {{10, 0.4, 0.61}, {20, 0.8, 0.72}};
  state.history.final_accuracy = 0.72;
  state.history.best_accuracy = 0.72;
  state.history.total_rounds = 100;
  state.history.round_participants = {4, 5, 3};
  state.history.epsilon = 2.0;
  state.history.sigma = 6.5;
  state.history.learning_rate = 0.125;
  state.history.completed_rounds = 57;
  state.history.interrupted = false;
  return state;
}

TEST(RoundStateTest, EncodeDecodeRoundTripsBitwise) {
  fl::PersistentRoundState state = SampleState();
  std::string payload = fl::EncodeRoundState(state);
  auto decoded = fl::DecodeRoundState(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const fl::PersistentRoundState& d = decoded.value();
  EXPECT_TRUE(d.fingerprint == state.fingerprint);
  EXPECT_EQ(d.completed_round, state.completed_round);
  EXPECT_EQ(d.model_params, state.model_params);
  EXPECT_EQ(d.honest_momentum, state.honest_momentum);
  EXPECT_EQ(d.poisoned_momentum, state.poisoned_momentum);
  EXPECT_EQ(d.worker_rng_keys, state.worker_rng_keys);
  EXPECT_EQ(d.aggregator_state, state.aggregator_state);
  EXPECT_EQ(d.ledger.rounds_charged(), 57);
  EXPECT_EQ(d.history.evals.size(), 2u);
  EXPECT_EQ(d.history.round_participants, state.history.round_participants);
  // Byte-level idempotence: encode(decode(x)) == x.
  EXPECT_EQ(fl::EncodeRoundState(d), payload);
}

TEST(RoundStateTest, CorruptPayloadsFailWithStatus) {
  std::string payload = fl::EncodeRoundState(SampleState());
  // Truncations at every prefix length must error, never crash.
  for (size_t len : {size_t{0}, size_t{3}, size_t{10}, payload.size() - 1}) {
    EXPECT_FALSE(fl::DecodeRoundState(payload.substr(0, len)).ok());
  }
  EXPECT_FALSE(fl::DecodeRoundState(payload + "x").ok());
  std::string bad_version = payload;
  bad_version[0] ^= 0xFF;
  EXPECT_FALSE(fl::DecodeRoundState(bad_version).ok());
}

TEST(RoundCommitRecordTest, RoundTripsAndRejectsCorruption) {
  fl::RoundCommitRecord rec;
  rec.round = 12;
  rec.participants = 7;
  rec.has_eval = 1;
  rec.eval_epoch = 1.25;
  rec.eval_accuracy = 0.875;
  std::string bytes = rec.Encode();
  auto decoded = fl::RoundCommitRecord::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().round, 12);
  EXPECT_EQ(decoded.value().participants, 7);
  EXPECT_EQ(decoded.value().has_eval, 1);
  EXPECT_EQ(decoded.value().eval_epoch, 1.25);
  EXPECT_EQ(decoded.value().eval_accuracy, 0.875);
  EXPECT_FALSE(fl::RoundCommitRecord::Decode(bytes.substr(1)).ok());
  EXPECT_FALSE(fl::RoundCommitRecord::Decode(bytes + "y").ok());
}

}  // namespace
}  // namespace dpbr
