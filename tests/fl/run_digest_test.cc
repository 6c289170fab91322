// Behaviour lock: CRC-32 digests of short, complete federated training
// runs, pinned to committed constants.
//
// Each digest covers everything a run produces — the final flat model
// parameters, every TrainingHistory field, and the ε the spent ledger
// reports — so any change to the numbers a run computes (a kernel's
// accumulation order, a sampler stream, the protocol's control flow)
// changes the digest. The constants may only change together with a
// stated reason; a refactor that claims bitwise-identical behaviour must
// leave them untouched.
//
// The three runs cover the paper's three model families and the main
// protocol regimes: the MLP under the "a little is enough" attack, the
// CNN with honest workers only, and the residual CNN with Poisson client
// sampling and intermediate evaluations. Each is asserted at pool sizes
// 1 and hw under the active SIMD tier, once more with the scalar
// kernels forced, and under every vector tier the host can run (the
// determinism contract makes all of them identical).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "data/synthetic.h"
#include "durability/crc32.h"
#include "fl/trainer.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace fl {
namespace {

enum class RunKind { kMlpALittle, kCnnHonest, kResCnnSampled };

// Digests at the commit that introduced this test; see the header.
constexpr uint32_t kMlpALittleDigest = 0x41101e7eu;
constexpr uint32_t kCnnHonestDigest = 0xd7c5aa44u;
constexpr uint32_t kResCnnSampledDigest = 0xf2e49af8u;

class Digest {
 public:
  template <typename T>
  void Add(const T& v) {
    crc_ = durability::Crc32(&v, sizeof(v), crc_);
  }
  void AddFloats(const std::vector<float>& v) {
    Add(v.size());
    crc_ = durability::Crc32(v.data(), v.size() * sizeof(float), crc_);
  }
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

data::DatasetBundle Bundle(bool image, size_t train, uint64_t seed) {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  if (image) {
    spec.image_h = 8;
    spec.image_w = 8;
  }
  spec.feature_dim = 64;
  spec.train_size = train;
  spec.val_size = 40;
  spec.test_size = 60;
  spec.class_separation = 4.0;
  spec.noise_std = 1.0;
  auto b = data::GenerateSynthetic(spec, seed);
  EXPECT_TRUE(b.ok());
  return std::move(b).value();
}

TrainerOptions BaseOptions() {
  TrainerOptions o;
  o.epsilon = 2.0;
  o.batch_size = 8;
  o.epochs = 1;
  o.momentum_reset = MomentumReset::kPersist;
  o.seed = 5;
  return o;
}

agg::AggregatorPtr Dpbr() {
  core::ExperimentConfig config;
  config.aggregator = "dpbr";
  auto a = core::MakeAggregator(config);
  EXPECT_TRUE(a.ok());
  return std::move(a).value();
}

// Runs one configuration to completion and digests its outcome.
uint32_t RunDigest(RunKind kind) {
  TrainerOptions o = BaseOptions();
  nn::ModelFactory factory;
  AttackPtr attack;
  bool image = kind != RunKind::kMlpALittle;
  size_t train = 0;
  switch (kind) {
    case RunKind::kMlpALittle: {
      o.num_honest = 4;
      o.num_byzantine = 4;
      train = 4 * 48;
      factory = nn::MlpFactory(64, 8, 4);
      core::ExperimentConfig config;
      config.attack = "a_little";
      auto a = core::MakeAttack(config);
      EXPECT_TRUE(a.ok());
      attack = std::move(a).value();
      break;
    }
    case RunKind::kCnnHonest:
      o.num_honest = 3;
      train = 3 * 32;
      factory = nn::CnnFactory(1, 4, 3, 4);
      break;
    case RunKind::kResCnnSampled:
      o.num_honest = 6;
      o.client_sampling_rate = 0.5;
      o.eval_every_epochs = 0.5;
      train = 6 * 16;
      factory = nn::ResidualCnnFactory(1, 4, 3, 4);
      break;
  }
  data::DatasetBundle bundle = Bundle(image, train, 17);
  FederatedTrainer trainer(&bundle, std::move(factory), Dpbr(),
                           std::move(attack), o);
  auto run = trainer.Run();
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return 0;
  const TrainingHistory& h = run.value();
  auto eps = trainer.spent_ledger().CurrentEpsilon();
  EXPECT_TRUE(eps.ok());

  Digest d;
  d.AddFloats(trainer.server()->params());
  d.Add(h.evals.size());
  for (const EvalPoint& e : h.evals) {
    d.Add(e.round);
    d.Add(e.epoch);
    d.Add(e.test_accuracy);
  }
  d.Add(h.final_accuracy);
  d.Add(h.best_accuracy);
  d.Add(h.total_rounds);
  d.Add(h.round_participants.size());
  for (int p : h.round_participants) d.Add(p);
  d.Add(h.epsilon);
  d.Add(h.sigma);
  d.Add(h.learning_rate);
  d.Add(h.completed_rounds);
  d.Add(h.interrupted);
  d.Add(eps.ok() ? eps.value() : -1.0);
  return d.value();
}

struct Case {
  RunKind kind;
  const char* name;
  uint32_t expected;
};

const Case kCases[] = {
    {RunKind::kMlpALittle, "mlp_a_little", kMlpALittleDigest},
    {RunKind::kCnnHonest, "cnn_honest", kCnnHonestDigest},
    {RunKind::kResCnnSampled, "rescnn_sampled", kResCnnSampledDigest},
};

void ExpectDigests(const char* mode) {
  for (const Case& c : kCases) {
    uint32_t got = RunDigest(c.kind);
    EXPECT_EQ(got, c.expected)
        << c.name << " (" << mode << "): digest 0x" << std::hex << got;
  }
}

TEST(RunDigestTest, PoolSizeOne) {
  ThreadPool pool(1);
  ScopedPoolOverride use(&pool);
  ExpectDigests("pool 1");
}

TEST(RunDigestTest, PoolSizeHw) {
  ThreadPool pool(std::max<size_t>(2, std::thread::hardware_concurrency()));
  ScopedPoolOverride use(&pool);
  ExpectDigests("pool hw");
}

TEST(RunDigestTest, ScalarKernels) {
  ThreadPool pool(std::max<size_t>(2, std::thread::hardware_concurrency()));
  ScopedPoolOverride use(&pool);
  simd::ScopedForceIsa force(simd::IsaLevel::kScalar);
  ExpectDigests("scalar");
}

// Every vector tier the host can run, forced one at a time: the GEMM
// tiles hold a different register-tile shape per tier, and the runs
// above only reach the detected tier and the scalar one.
TEST(RunDigestTest, EveryAvailableTier) {
  ThreadPool pool(std::max<size_t>(2, std::thread::hardware_concurrency()));
  ScopedPoolOverride use(&pool);
  const simd::IsaLevel kVectorTiers[] = {
      simd::IsaLevel::kSse2, simd::IsaLevel::kAvx2, simd::IsaLevel::kAvx512};
  for (simd::IsaLevel level : kVectorTiers) {
    if (simd::KernelsFor(level) == nullptr) continue;
    simd::ScopedForceIsa force(level);
    ExpectDigests(simd::IsaName(level));
  }
}

}  // namespace
}  // namespace fl
}  // namespace dpbr
