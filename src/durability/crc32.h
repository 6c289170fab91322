// CRC-32 (IEEE 802.3 polynomial, reflected) used to frame every durable
// record and checkpoint payload.
//
// Slicing-by-8: eight 256-entry tables let the loop fold eight input
// bytes per step instead of one, which is ~5x faster than the bytewise
// table walk on a checkpoint-sized buffer (a paper-scale momentum state
// is tens of MiB, CRC'd on every snapshot). The tables are plain C++ —
// corruption *detection* must not depend on optional hardware
// instructions — and the values are exactly those of the bytewise
// algorithm, so files written before and after stay compatible.
//
// Crc32Combine joins the CRCs of two adjacent pieces without their bytes
// (zlib's crc32_combine: multiply crc1 by x^(8·len2) modulo the
// polynomial, then add crc2), so independent pieces can be checksummed
// in parallel and joined in stream order. It is plain C++ as well.

#ifndef DPBR_DURABILITY_CRC32_H_
#define DPBR_DURABILITY_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace dpbr {
namespace durability {

/// CRC-32 of `len` bytes at `data`, continuing from `crc` (pass 0 for a
/// fresh checksum; feed the previous return value to extend incrementally).
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

/// The CRC of a‖b from crc1 = Crc32(a, |a|, c), crc2 = Crc32(b, |b|) and
/// len2 = |b|: equal to Crc32(b, |b|, crc1), for any starting CRC c.
uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2);

}  // namespace durability
}  // namespace dpbr

#endif  // DPBR_DURABILITY_CRC32_H_
