// Snapshot checkpoint tests: atomic write/read round trips, newest-first
// recovery that degrades past corrupt files, retention pruning, and the
// streaming writer (chunk boundaries, trainer-written files, failures
// mid-stream).

#include "durability/checkpoint.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aggregators/mean.h"
#include "attacks/label_flip.h"
#include "data/synthetic.h"
#include "durability/bytes.h"
#include "durability/crc32.h"
#include "durability/io.h"
#include "fl/round_state.h"
#include "fl/trainer.h"
#include "nn/model_zoo.h"

namespace dpbr {
namespace durability {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "dpbr_ckpt_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  void TearDown() override {
    auto names = ListDir(dir_);
    if (names.ok()) {
      // Best-effort temp-dir sweep; a leftover file only leaks /tmp
      // space, it cannot affect another test's assertions.
      for (const auto& n : names.value()) (void)RemoveFile(dir_ + "/" + n);
    }
    rmdir(dir_.c_str());
  }

  void Corrupt(int64_t round, size_t offset_from_end, char mask) {
    std::string path = CheckpointPath(dir_, round);
    auto data = ReadFileToString(path);
    ASSERT_TRUE(data.ok());
    std::string raw = std::move(data).value();
    ASSERT_GE(raw.size(), offset_from_end + 1);
    raw[raw.size() - 1 - offset_from_end] ^= mask;
    ASSERT_TRUE(WriteFileAtomic(path, raw).ok());
  }

  std::string dir_;
};

TEST_F(CheckpointTest, RoundTripsPayload) {
  std::string payload = "model-state-bytes\0with-nul";
  ASSERT_TRUE(WriteCheckpoint(dir_, 3, payload).ok());
  auto loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().checkpoint.round, 3);
  EXPECT_EQ(loaded.value().checkpoint.payload, payload);
  EXPECT_EQ(loaded.value().checkpoint.skipped_corrupt, 0);
}

TEST_F(CheckpointTest, EmptyOrMissingDirectoryFindsNothing) {
  auto missing = LoadLatestCheckpoint(dir_ + "/nonexistent");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().found);
  auto empty = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().found);
}

TEST_F(CheckpointTest, NewestRoundWins) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 2, "round2").ok());
  ASSERT_TRUE(WriteCheckpoint(dir_, 10, "round10").ok());
  auto loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().checkpoint.round, 10);
  EXPECT_EQ(loaded.value().checkpoint.payload, "round10");
}

TEST_F(CheckpointTest, CorruptNewestFallsBackToOlder) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 4, "older-good").ok());
  ASSERT_TRUE(WriteCheckpoint(dir_, 5, "newer-corrupt").ok());
  Corrupt(5, 0, 0x01);  // bit-flip inside the newest payload
  auto loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().checkpoint.round, 4);
  EXPECT_EQ(loaded.value().checkpoint.payload, "older-good");
  EXPECT_EQ(loaded.value().checkpoint.skipped_corrupt, 1);
}

TEST_F(CheckpointTest, AllCorruptFindsNothing) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, "a").ok());
  ASSERT_TRUE(WriteCheckpoint(dir_, 2, "b").ok());
  Corrupt(1, 0, 0x01);
  Corrupt(2, 0, 0x01);
  auto loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().found);
}

TEST_F(CheckpointTest, RetentionKeepsNewestTwo) {
  for (int64_t r = 1; r <= 5; ++r) {
    ASSERT_TRUE(
        WriteCheckpoint(dir_, r, "round" + std::to_string(r)).ok());
  }
  EXPECT_FALSE(PathExists(CheckpointPath(dir_, 3)));
  EXPECT_TRUE(PathExists(CheckpointPath(dir_, 4)));
  EXPECT_TRUE(PathExists(CheckpointPath(dir_, 5)));
}

TEST_F(CheckpointTest, TmpDebrisIsIgnored) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 7, "good").ok());
  // Simulate a crash mid-write of a newer checkpoint: orphaned temp file.
  ASSERT_TRUE(WriteFileAtomic(CheckpointPath(dir_, 8) + ".tmp",
                              "half-written")
                  .ok());
  auto loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().checkpoint.round, 7);
}

TEST_F(CheckpointTest, BadMagicIsRejected) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, "payload").ok());
  std::string path = CheckpointPath(dir_, 1);
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  std::string raw = std::move(data).value();
  raw[0] ^= 0xFF;  // magic lives at the front
  ASSERT_TRUE(WriteFileAtomic(path, raw).ok());
  auto payload = ReadCheckpointPayload(path);
  ASSERT_FALSE(payload.ok());
  EXPECT_NE(payload.status().message().find("magic"), std::string::npos);
}

TEST_F(CheckpointTest, ShortFileIsRejected) {
  ASSERT_TRUE(WriteFileAtomic(CheckpointPath(dir_, 1), "tiny").ok());
  auto payload = ReadCheckpointPayload(CheckpointPath(dir_, 1));
  ASSERT_FALSE(payload.ok());
  EXPECT_NE(payload.status().message().find("header"), std::string::npos);
}

TEST_F(CheckpointTest, TruncatedPayloadIsRejected) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, "a-long-enough-payload").ok());
  std::string path = CheckpointPath(dir_, 1);
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  std::string raw = std::move(data).value();
  ASSERT_TRUE(WriteFileAtomic(path, raw.substr(0, raw.size() - 3)).ok());
  auto payload = ReadCheckpointPayload(path);
  ASSERT_FALSE(payload.ok());
  EXPECT_NE(payload.status().message().find("length"), std::string::npos);
}

TEST_F(CheckpointTest, EnsureDirBuildsMissingParents) {
  // Experiment sweeps nest per-seed subdirectories under a base the
  // user names; all missing levels must be created (mkdir -p).
  std::string nested = dir_ + "/sweep/seed1";
  ASSERT_TRUE(EnsureDir(nested).ok());
  EXPECT_TRUE(PathExists(nested));
  // Idempotent on an existing directory.
  EXPECT_TRUE(EnsureDir(nested).ok());
  // A file in the way is a configuration error, not a crash.
  std::string file_path = dir_ + "/sweep/seed1/blocker";
  ASSERT_TRUE(WriteFileAtomic(file_path, "x").ok());
  EXPECT_EQ(EnsureDir(file_path).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(RemoveFile(file_path).ok());
  rmdir(nested.c_str());
  rmdir((dir_ + "/sweep").c_str());
}

TEST_F(CheckpointTest, MissingFileIsNotFound) {
  auto payload = ReadCheckpointPayload(CheckpointPath(dir_, 42));
  ASSERT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kNotFound);
}

// The container framing built independently of the writer.
std::string Framed(const std::string& payload) {
  ByteWriter header;
  header.PutU64(kCheckpointMagic);
  header.PutU32(kCheckpointVersion);
  header.PutU32(Crc32(payload.data(), payload.size()));
  header.PutU64(payload.size());
  return header.Take() + payload;
}

std::string PatternPayload(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>((i * 131 + (i >> 12)) & 0xFF);
  }
  return out;
}

TEST_F(CheckpointTest, PayloadsAroundTheChunkSizeRoundTrip) {
  constexpr size_t kChunk = kCheckpointChunkBytes;
  const size_t sizes[] = {0, 1, kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 5};
  int64_t round = 1;
  for (size_t n : sizes) {
    const std::string payload = PatternPayload(n);
    ASSERT_TRUE(WriteCheckpoint(dir_, round, payload).ok()) << n;
    auto raw = ReadFileToString(CheckpointPath(dir_, round));
    ASSERT_TRUE(raw.ok());
    EXPECT_TRUE(raw.value() == Framed(payload)) << n;
    auto loaded = ReadCheckpointPayload(CheckpointPath(dir_, round));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded.value() == payload) << n;
    ++round;
  }
}

TEST_F(CheckpointTest, StreamedPiecesEqualOneString) {
  // Many small writes straddling chunk boundaries give the same file as
  // the payload handed over whole.
  const std::string payload = PatternPayload(2 * kCheckpointChunkBytes + 77);
  auto in_pieces = [&](ByteWriter* w) {
    for (size_t off = 0; off < payload.size(); off += 1000) {
      w->PutBytes(payload.data() + off,
                  std::min<size_t>(1000, payload.size() - off));
    }
  };
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, in_pieces).ok());
  auto raw = ReadFileToString(CheckpointPath(dir_, 1));
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw.value() == Framed(payload));
}

TEST_F(CheckpointTest, TrainerCheckpointIsHeaderPlusEncodedState) {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.feature_dim = 16;
  spec.train_size = 640;
  spec.val_size = 80;
  spec.test_size = 80;
  auto bundle = data::GenerateSynthetic(spec, 7);
  ASSERT_TRUE(bundle.ok());
  fl::TrainerOptions o;
  o.num_honest = 8;
  o.num_byzantine = 2;  // label flip: poisoned-protocol momentum too
  o.epochs = 1;
  o.batch_size = 8;
  o.epsilon = 2.0;
  o.momentum_reset = fl::MomentumReset::kPersist;
  o.checkpoint_dir = dir_;
  o.stop_after_round = 2;
  // A hidden width that makes the momentum state span several chunks.
  auto aggregator = std::make_unique<agg::MeanAggregator>();
  auto attack = std::make_unique<attacks::LabelFlipAttack>();
  fl::FederatedTrainer trainer(&bundle.value(), nn::MlpFactory(16, 512, 4),
                               std::move(aggregator), std::move(attack), o);
  auto history = trainer.Run();
  ASSERT_TRUE(history.ok()) << history.status().ToString();

  auto raw = ReadFileToString(CheckpointPath(dir_, 2));
  ASSERT_TRUE(raw.ok());
  auto payload = ReadCheckpointPayload(CheckpointPath(dir_, 2));
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto state = fl::DecodeRoundState(payload.value());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state.value().poisoned_momentum.size(), 2u);
  const std::string encoded = fl::EncodeRoundState(state.value());
  EXPECT_GT(encoded.size(), 2 * kCheckpointChunkBytes);
  EXPECT_TRUE(raw.value() == Framed(encoded));
}

TEST_F(CheckpointTest, FailedStreamLeavesNoTmpAndKeepsOlderCheckpoint) {
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, "previous").ok());
  // Cap the file size below the payload so write(2) fails part-way, with
  // SIGXFSZ ignored so the failure surfaces as EFBIG instead of a kill.
  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = kCheckpointChunkBytes + kCheckpointChunkBytes / 2;
  void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  const std::string payload = PatternPayload(3 * kCheckpointChunkBytes);
  Status st = WriteCheckpoint(dir_, 2, payload);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(PathExists(CheckpointPath(dir_, 2)));
  EXPECT_FALSE(PathExists(CheckpointPath(dir_, 2) + ".tmp"));
  auto loaded = LoadLatestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().checkpoint.round, 1);
  EXPECT_EQ(loaded.value().checkpoint.payload, "previous");
}

TEST_F(CheckpointTest, FailingFillLeavesTheOldFileUntouched) {
  const std::string path = dir_ + "/file";
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());
  Status st = StreamFileAtomic(path, [](FileSink* file) {
    Status w = file->Write("partial", 7);
    if (!w.ok()) return w;
    return Status::Internal("sink gave up");
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_FALSE(PathExists(path + ".tmp"));
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "old contents");
}

}  // namespace
}  // namespace durability
}  // namespace dpbr
