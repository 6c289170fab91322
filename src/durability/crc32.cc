#include "durability/crc32.h"

namespace dpbr {
namespace durability {
namespace {

// Reflected IEEE polynomial 0xEDB88320; tables generated once at startup.
// entries[0] is the classic bytewise table; entries[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so eight lookups fold
// eight input bytes at once.
struct Crc32Tables {
  uint32_t entries[8][256];

  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

const Crc32Tables& Tables() {
  static const Crc32Tables tables;
  return tables;
}

// Little-endian load assembled from bytes: endian-independent, and
// compiled to one unaligned load on little-endian targets.
inline uint32_t LoadLe32(const unsigned char* p) {
  uint32_t v = p[3];
  v = v << 8 | p[2];
  v = v << 8 | p[1];
  return v << 8 | p[0];
}

// Products in GF(2)[x] modulo the reflected polynomial, on bit-reversed
// words (bit 31 is x^0): a·b mod P, one conditional xor per bit of a.
uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? 0xEDB88320u ^ (b >> 1) : b >> 1;
  }
  return product;
}

// x^(2^k) mod P for k = 0..31, by repeated squaring from x^1. The
// order of x divides 2^32 − 1, so x^(2^(k+32)) = x^(2^k).
struct PowersOfX {
  uint32_t x2k[32];

  PowersOfX() {
    uint32_t p = 1u << 30;  // x^1
    for (uint32_t& e : x2k) {
      e = p;
      p = MultModP(p, p);
    }
  }
};

// x^(8·n) mod P: the operator that shifts a CRC past n zero bytes.
uint32_t XPow8n(uint64_t n) {
  static const PowersOfX powers;
  uint32_t p = 1u << 31;  // x^0
  for (int k = 3; n != 0; n >>= 1, ++k) {
    if (n & 1u) p = MultModP(powers.x2k[k & 31], p);
  }
  return p;
}

}  // namespace

uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  return MultModP(XPow8n(len2), crc1) ^ crc2;
}

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const Crc32Tables& t = Tables();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = c ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    c = t.entries[7][lo & 0xFFu] ^ t.entries[6][(lo >> 8) & 0xFFu] ^
        t.entries[5][(lo >> 16) & 0xFFu] ^ t.entries[4][lo >> 24] ^
        t.entries[3][hi & 0xFFu] ^ t.entries[2][(hi >> 8) & 0xFFu] ^
        t.entries[1][(hi >> 16) & 0xFFu] ^ t.entries[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t.entries[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace durability
}  // namespace dpbr
