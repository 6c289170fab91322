// Flat binary serialization for durable state: a ByteWriter (grow-only
// string, or batches streamed to a sink) and a bounds-checked ByteReader
// over the same little-endian layout.
//
// Every multi-byte value is written as its raw bit pattern (floats and
// doubles via their IEEE-754 words), so a decode followed by an encode is
// byte-identical and restored state is *bitwise* equal to what was saved —
// the property the resume-equals-uninterrupted guarantee rests on.
// Decoding never trusts a length field: readers validate every count
// against the bytes actually remaining and surface malformed input as
// Status (a corrupt checkpoint must degrade, not abort or over-allocate).

#ifndef DPBR_DURABILITY_BYTES_H_
#define DPBR_DURABILITY_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpbr {
namespace durability {

/// `size` bytes at `data`: one piece of a streamed batch.
struct ByteSpan {
  const char* data;
  size_t size;
};

/// Append-only encoder. By default all Put* calls append to an internal
/// buffer that Take() moves out. A streaming writer instead hands its
/// output to a sink in consecutive batches of `batch_bytes` (the last one
/// possibly shorter, delivered by Finish(); a batch also ends early when
/// its staging buffer is full). A batch is a list of pieces: bytes put
/// in runs shorter than kMinReferencedBytes are copied into a staging
/// buffer of at most kMaxStagingBytes, and every longer run is passed on
/// by reference, never copied. The caller therefore keeps each buffer it
/// hands a streaming writer alive and unchanged until Finish() returns.
/// Both modes produce the same bytes.
class ByteWriter {
 public:
  /// Receives a streaming writer's output, batch by batch, in order: the
  /// batch is its `count` pieces concatenated.
  using BatchSink = std::function<Status(const ByteSpan* pieces, size_t count)>;

  /// Streaming mode: runs this long or longer are referenced, not copied.
  static constexpr size_t kMinReferencedBytes = 4096;
  /// Streaming mode: the staging buffer's size cap.
  static constexpr size_t kMaxStagingBytes = size_t{1} << 20;

  ByteWriter() = default;
  ByteWriter(size_t batch_bytes, BatchSink sink);

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  /// IEEE-754 bit pattern; NaNs and signed zeros round-trip exactly.
  void PutDouble(double v);
  /// u64 element count followed by the raw float words.
  void PutFloatVec(const std::vector<float>& v);
  /// u64 element count followed by the raw double words.
  void PutDoubleVec(const std::vector<double>& v);
  /// u64 element count followed by i64 values.
  void PutIntVec(const std::vector<int>& v);
  /// u64 byte count followed by the bytes.
  void PutString(const std::string& v);
  /// The bytes alone, no count.
  void PutBytes(const void* p, size_t n);

  /// Streaming mode: delivers the last batch and returns the first sink
  /// failure (OK when every batch was accepted). After a failure the
  /// writer drops all further output.
  [[nodiscard]] Status Finish();

  /// String mode: makes room for `n` bytes in total.
  void Reserve(size_t n) { buf_.reserve(n); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void Flush();

  // String mode: everything written. Streaming mode: the current batch's
  // staged bytes; reserved once, so the pieces pointing into it stay
  // valid until the batch is flushed.
  std::string buf_;
  size_t batch_bytes_ = 0;  // 0: grow-only string mode
  BatchSink sink_;
  Status sink_status_;
  std::vector<ByteSpan> batch_;  // the current batch's pieces
  size_t batch_size_ = 0;        // bytes in batch_
  bool staged_tail_ = false;     // batch_.back() ends at buf_'s end
};

/// What `encode` writes, as one string allocated once at its final size:
/// a first streaming pass only counts the bytes, copying just the small
/// fields, so no growth step copies the large spans or faults in memory
/// it then frees.
std::string EncodeToString(const std::function<void(ByteWriter*)>& encode);

/// Sequential decoder over a caller-owned buffer (not copied; keep the
/// buffer alive while reading). Every Get* returns OutOfRange when the
/// remaining bytes cannot satisfy the read.
class ByteReader {
 public:
  explicit ByteReader(const std::string& data)
      : data_(data.data()), size_(data.size()) {}
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] Status GetU8(uint8_t* out);
  [[nodiscard]] Status GetU32(uint32_t* out);
  [[nodiscard]] Status GetU64(uint64_t* out);
  [[nodiscard]] Status GetI64(int64_t* out);
  [[nodiscard]] Status GetDouble(double* out);
  [[nodiscard]] Status GetFloatVec(std::vector<float>* out);
  [[nodiscard]] Status GetDoubleVec(std::vector<double>* out);
  [[nodiscard]] Status GetIntVec(std::vector<int>* out);
  [[nodiscard]] Status GetString(std::string* out);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  [[nodiscard]] Status Take(void* out, size_t n);
  /// Reads a u64 element count and validates count*elem_size against the
  /// bytes remaining (corrupt lengths fail instead of allocating).
  [[nodiscard]] Status TakeCount(size_t elem_size, size_t* count);

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace durability
}  // namespace dpbr

#endif  // DPBR_DURABILITY_BYTES_H_
