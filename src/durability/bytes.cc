#include "durability/bytes.h"

#include <cstring>

namespace dpbr {
namespace durability {

ByteWriter::ByteWriter(size_t chunk_bytes, ChunkSink sink)
    : chunk_bytes_(chunk_bytes), sink_(std::move(sink)) {
  buf_.reserve(chunk_bytes_);
}

void ByteWriter::PutBytes(const void* p, size_t n) {
  const char* src = static_cast<const char*>(p);
  if (chunk_bytes_ > 0) {
    if (!sink_status_.ok()) return;
    // Top the chunk up and hand it over until the rest fits.
    while (buf_.size() + n > chunk_bytes_) {
      size_t take = chunk_bytes_ - buf_.size();
      buf_.append(src, take);
      src += take;
      n -= take;
      Flush();
      if (!sink_status_.ok()) return;
    }
  }
  buf_.append(src, n);
}

void ByteWriter::Flush() {
  if (sink_status_.ok() && !buf_.empty()) {
    sink_status_ = sink_(buf_.data(), buf_.size());
  }
  buf_.clear();
}

Status ByteWriter::Finish() {
  if (chunk_bytes_ > 0) Flush();
  return sink_status_;
}

void ByteWriter::PutU8(uint8_t v) { PutBytes(&v, sizeof(v)); }

void ByteWriter::PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }

void ByteWriter::PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }

void ByteWriter::PutI64(int64_t v) { PutBytes(&v, sizeof(v)); }

void ByteWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutFloatVec(const std::vector<float>& v) {
  PutU64(v.size());
  PutBytes(v.data(), v.size() * sizeof(float));
}

void ByteWriter::PutDoubleVec(const std::vector<double>& v) {
  PutU64(v.size());
  PutBytes(v.data(), v.size() * sizeof(double));
}

void ByteWriter::PutIntVec(const std::vector<int>& v) {
  PutU64(v.size());
  for (int x : v) PutI64(x);
}

void ByteWriter::PutString(const std::string& v) {
  PutU64(v.size());
  PutBytes(v.data(), v.size());
}

Status ByteReader::Take(void* out, size_t n) {
  if (n > remaining()) {
    return Status::OutOfRange("byte buffer underflow: need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(remaining()));
  }
  // An empty vector's data() may be null, and memcpy's pointers must
  // not be null even for n == 0.
  if (n == 0) return Status::OK();
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status ByteReader::TakeCount(size_t elem_size, size_t* count) {
  uint64_t n = 0;
  DPBR_RETURN_NOT_OK(GetU64(&n));
  if (elem_size != 0 && n > remaining() / elem_size) {
    return Status::OutOfRange(
        "corrupt element count " + std::to_string(n) + " exceeds the " +
        std::to_string(remaining()) + " bytes remaining");
  }
  *count = static_cast<size_t>(n);
  return Status::OK();
}

Status ByteReader::GetU8(uint8_t* out) { return Take(out, sizeof(*out)); }

Status ByteReader::GetU32(uint32_t* out) { return Take(out, sizeof(*out)); }

Status ByteReader::GetU64(uint64_t* out) { return Take(out, sizeof(*out)); }

Status ByteReader::GetI64(int64_t* out) { return Take(out, sizeof(*out)); }

Status ByteReader::GetDouble(double* out) {
  uint64_t bits = 0;
  DPBR_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status ByteReader::GetFloatVec(std::vector<float>* out) {
  size_t n = 0;
  DPBR_RETURN_NOT_OK(TakeCount(sizeof(float), &n));
  out->resize(n);
  return Take(out->data(), n * sizeof(float));
}

Status ByteReader::GetDoubleVec(std::vector<double>* out) {
  size_t n = 0;
  DPBR_RETURN_NOT_OK(TakeCount(sizeof(double), &n));
  out->resize(n);
  return Take(out->data(), n * sizeof(double));
}

Status ByteReader::GetIntVec(std::vector<int>* out) {
  size_t n = 0;
  DPBR_RETURN_NOT_OK(TakeCount(sizeof(int64_t), &n));
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t v = 0;
    DPBR_RETURN_NOT_OK(GetI64(&v));
    (*out)[i] = static_cast<int>(v);
  }
  return Status::OK();
}

Status ByteReader::GetString(std::string* out) {
  size_t n = 0;
  DPBR_RETURN_NOT_OK(TakeCount(1, &n));
  out->resize(n);
  return Take(out->empty() ? nullptr : &(*out)[0], n);
}

}  // namespace durability
}  // namespace dpbr
