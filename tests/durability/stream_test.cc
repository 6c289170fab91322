// The streaming writer: ByteWriter batches (staged small fields, large
// spans by reference, the batch size cap), EncodeToString, and
// checkpoints streamed from live spans with the parallel CRC, against the
// bytes of the grow-only string encoding.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "durability/bytes.h"
#include "durability/checkpoint.h"
#include "durability/crc32.h"
#include "durability/io.h"

namespace dpbr {
namespace durability {
namespace {

std::vector<float> Floats(size_t n, float seed) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = seed + static_cast<float>(i % 1000) * 0.001f;
  }
  return v;
}

// Small fields around float spans of every size class: empty, one float,
// staged (17 floats), and referenced spans within and across batches.
struct Payload {
  std::vector<std::vector<float>> spans;
  std::string blob = std::string(5000, 'b');

  explicit Payload(const std::vector<size_t>& sizes) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      spans.push_back(Floats(sizes[i], static_cast<float>(i)));
    }
  }

  void Encode(ByteWriter* w) const {
    w->PutU32(0xC0FFEEu);
    for (const std::vector<float>& s : spans) {
      w->PutDouble(0.25);
      w->PutFloatVec(s);
    }
    w->PutString(blob);
    w->PutIntVec({1, -2, 3});
  }

  std::string Grown() const {
    ByteWriter w;
    Encode(&w);
    return w.Take();
  }
};

struct Batch {
  std::vector<ByteSpan> pieces;
  std::string bytes;
};

std::vector<Batch> StreamBatches(const Payload& p, size_t batch_bytes) {
  std::vector<Batch> batches;
  ByteWriter w(batch_bytes, [&](const ByteSpan* pieces, size_t count) {
    Batch b;
    b.pieces.assign(pieces, pieces + count);
    for (size_t i = 0; i < count; ++i) {
      b.bytes.append(pieces[i].data, pieces[i].size);
    }
    batches.push_back(std::move(b));
    return Status::OK();
  });
  p.Encode(&w);
  EXPECT_TRUE(w.Finish().ok());
  return batches;
}

bool Within(const ByteSpan& piece, const std::vector<float>& v) {
  const char* lo = reinterpret_cast<const char*>(v.data());
  const char* hi = lo + v.size() * sizeof(float);
  return piece.data >= lo && piece.data + piece.size <= hi;
}

TEST(ByteWriterStreamTest, BatchesConcatenateToTheGrownBytes) {
  const Payload p({0, 1, 17, 300000, 1024, 1023});
  const std::string want = p.Grown();
  for (size_t batch : {size_t{1}, size_t{7}, size_t{4096}, size_t{4097},
                       size_t{1} << 20, size_t{4} << 20}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<Batch> batches = StreamBatches(p, batch);
    std::string got;
    for (size_t i = 0; i < batches.size(); ++i) {
      got += batches[i].bytes;
      EXPECT_LE(batches[i].bytes.size(), batch);
      EXPECT_FALSE(batches[i].bytes.empty());
      // Below the staging cap a batch ends early only at the end.
      if (i + 1 < batches.size()) {
        EXPECT_EQ(batches[i].bytes.size(), batch);
      }
    }
    EXPECT_TRUE(got == want);
  }
}

TEST(ByteWriterStreamTest, LongRunsAreReferencedShortOnesCopied) {
  // 300,000 and 1,024 floats are at least kMinReferencedBytes: their
  // pieces point into the caller's vectors. 17 and 1,023 floats are
  // copied into the staging buffer.
  const Payload p({17, 300000, 1024, 1023});
  static_assert(ByteWriter::kMinReferencedBytes == 1024 * sizeof(float),
                "the sizes above straddle the reference threshold");
  std::vector<Batch> batches = StreamBatches(p, size_t{4} << 20);
  ASSERT_EQ(batches.size(), 1u);
  size_t referenced[4] = {0, 0, 0, 0};
  for (const ByteSpan& piece : batches[0].pieces) {
    for (size_t s = 0; s < 4; ++s) {
      if (Within(piece, p.spans[s])) referenced[s] += piece.size;
    }
  }
  EXPECT_EQ(referenced[0], 0u);
  EXPECT_EQ(referenced[1], 300000 * sizeof(float));
  EXPECT_EQ(referenced[2], 1024 * sizeof(float));
  EXPECT_EQ(referenced[3], 0u);
}

TEST(ByteWriterStreamTest, FullStagingEndsTheBatchEarly) {
  // 3 MiB of 8-byte fields against a 4 MiB batch: every field is staged,
  // so batches end at the 1 MiB staging cap.
  const size_t fields = 3 * (size_t{1} << 20) / 8;
  std::vector<size_t> sizes;
  ByteWriter w(size_t{4} << 20, [&](const ByteSpan* pieces, size_t count) {
    size_t n = 0;
    for (size_t i = 0; i < count; ++i) n += pieces[i].size;
    sizes.push_back(n);
    return Status::OK();
  });
  for (size_t i = 0; i < fields; ++i) w.PutU64(i);
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(sizes, (std::vector<size_t>(3, ByteWriter::kMaxStagingBytes)));
}

TEST(ByteWriterStreamTest, SinkFailureDropsLaterOutput) {
  const Payload p({300000, 300000, 17});
  int calls = 0;
  ByteWriter w(size_t{1} << 20, [&](const ByteSpan*, size_t) {
    ++calls;
    return calls == 1 ? Status::OK() : Status::Internal("disk full");
  });
  p.Encode(&w);
  Status st = w.Finish();
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 2);
}

TEST(EncodeToStringTest, EqualsTheGrownEncoding) {
  for (const std::vector<size_t>& sizes :
       {std::vector<size_t>{}, std::vector<size_t>{0, 1, 17, 300000}}) {
    const Payload p(sizes);
    const std::string got =
        EncodeToString([&](ByteWriter* w) { p.Encode(w); });
    EXPECT_TRUE(got == p.Grown());
  }
}

class CheckpointStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = ::testing::TempDir() + "dpbr_stream_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  void TearDown() override {
    auto names = ListDir(dir_);
    if (names.ok()) {
      for (const auto& n : names.value()) (void)RemoveFile(dir_ + "/" + n);
    }
    rmdir(dir_.c_str());
  }

  std::string dir_;
};

TEST_F(CheckpointStreamTest, LiveSpansGiveTheStringOverloadsFile) {
  // Five 300,000-float spans take the payload past one batch, so the
  // CRC joins segments across batches too.
  const Payload p({0, 1, 17, 300000, 300000, 300000, 300000, 300000});
  const std::string grown = p.Grown();
  ASSERT_TRUE(WriteCheckpoint(dir_, 1, grown).ok());
  auto want = ReadFileToString(CheckpointPath(dir_, 1));
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want.value().size(), kCheckpointBatchBytes);
  // The string overload's file is the container framed by hand.
  ByteWriter header;
  header.PutU64(kCheckpointMagic);
  header.PutU32(kCheckpointVersion);
  header.PutU32(Crc32(grown.data(), grown.size()));
  header.PutU64(grown.size());
  EXPECT_TRUE(want.value() == header.Take() + grown);
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  int64_t round = 2;
  for (size_t size : {size_t{1}, size_t{2}, hw}) {
    ThreadPool pool(size);
    ScopedPoolOverride route(&pool);
    ASSERT_TRUE(
        WriteCheckpoint(dir_, round, [&](ByteWriter* w) { p.Encode(w); })
            .ok());
    auto got = ReadFileToString(CheckpointPath(dir_, round));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value() == want.value()) << "pool " << size;
    ++round;
  }
}

}  // namespace
}  // namespace durability
}  // namespace dpbr
