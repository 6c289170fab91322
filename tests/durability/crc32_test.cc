// Crc32 (slicing-by-8) against a bytewise reference of the same
// polynomial: every short length at every alignment, large random
// buffers, incremental chaining at every cut point, the standard check
// value, and Crc32Combine against the CRC of the concatenation.

#include "durability/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace dpbr {
namespace durability {
namespace {

// The textbook one-byte-at-a-time CRC-32 (reflected 0xEDB88320), with its
// table built independently of the implementation under test.
uint32_t ReferenceCrc32(const unsigned char* p, size_t len, uint32_t crc = 0) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

TEST(Crc32Test, CheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(Crc32(s.data(), s.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesReferenceAtEveryShortLengthAndOffset) {
  const std::vector<unsigned char> buf = RandomBytes(64 + 8, 1);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      EXPECT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
      // A non-zero starting CRC exercises the chained entry too.
      EXPECT_EQ(Crc32(p, len, 0x12345678u),
                ReferenceCrc32(p, len, 0x12345678u))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnLargeRandomBuffers) {
  std::mt19937 rng(7);
  const size_t size = (size_t{4} << 20) + 13;
  const std::vector<unsigned char> buf = RandomBytes(size, 2);
  for (int trial = 0; trial < 6; ++trial) {
    size_t offset = rng() % 8;
    size_t len = rng() % (buf.size() - offset);
    if (trial == 0) len = buf.size() - offset;  // the whole buffer once
    EXPECT_EQ(Crc32(buf.data() + offset, len),
              ReferenceCrc32(buf.data() + offset, len))
        << "offset " << offset << " length " << len;
  }
}

TEST(Crc32Test, ChainingEqualsOneShotAtEveryCut) {
  const std::vector<unsigned char> buf = RandomBytes(100, 3);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, ReferenceCrc32(buf.data(), buf.size()));
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    uint32_t a = Crc32(buf.data(), cut);
    EXPECT_EQ(Crc32(buf.data() + cut, buf.size() - cut, a), whole)
        << "cut " << cut;
  }
}

TEST(Crc32Test, CombineEqualsTheCrcOfTheConcatenation) {
  const size_t sizes[] = {0, 1, 7, 8, 4095, (size_t{1} << 20) + 3};
  const std::vector<unsigned char> buf =
      RandomBytes(2 * ((size_t{1} << 20) + 3), 4);
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      const unsigned char* a = buf.data();
      const unsigned char* b = buf.data() + na;
      const uint32_t crc_b = Crc32(b, nb);
      for (uint32_t start : {0u, 0x9E3779B9u}) {
        const uint32_t want = ReferenceCrc32(buf.data(), na + nb, start);
        EXPECT_EQ(Crc32Combine(Crc32(a, na, start), crc_b, nb), want)
            << "|a| " << na << " |b| " << nb << " start " << start;
      }
    }
  }
}

TEST(Crc32Test, CombineJoinsManySegmentsInOrder) {
  // The checkpoint writer's shape: segments CRC'd from zero, joined left
  // to right onto the running CRC.
  const std::vector<unsigned char> buf = RandomBytes(100000, 5);
  const size_t cuts[] = {0, 1, 9, 4096, 4100, 65536, 99999, 100000};
  uint32_t crc = 0;
  for (size_t i = 0; i + 1 < sizeof(cuts) / sizeof(cuts[0]); ++i) {
    const size_t n = cuts[i + 1] - cuts[i];
    crc = Crc32Combine(crc, Crc32(buf.data() + cuts[i], n), n);
  }
  EXPECT_EQ(crc, ReferenceCrc32(buf.data(), buf.size()));
}

}  // namespace
}  // namespace durability
}  // namespace dpbr
