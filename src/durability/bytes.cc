#include "durability/bytes.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace dpbr {
namespace durability {

ByteWriter::ByteWriter(size_t batch_bytes, BatchSink sink)
    : batch_bytes_(batch_bytes), sink_(std::move(sink)) {
  DPBR_CHECK_GT(batch_bytes_, 0u);
  buf_.reserve(std::min(batch_bytes_, kMaxStagingBytes));
}

void ByteWriter::PutBytes(const void* p, size_t n) {
  const char* src = static_cast<const char*>(p);
  if (batch_bytes_ == 0) {
    buf_.append(src, n);
    return;
  }
  const bool by_reference = n >= kMinReferencedBytes;
  while (n > 0 && sink_status_.ok()) {
    size_t take = std::min(n, batch_bytes_ - batch_size_);
    if (by_reference) {
      batch_.push_back({src, take});
      staged_tail_ = false;
    } else {
      take = std::min(take, buf_.capacity() - buf_.size());
      if (take == 0) {  // staging full: the batch ends early
        Flush();
        continue;
      }
      const char* dst = buf_.data() + buf_.size();
      buf_.append(src, take);  // within capacity: never reallocates
      if (staged_tail_) {
        batch_.back().size += take;
      } else {
        batch_.push_back({dst, take});
        staged_tail_ = true;
      }
    }
    src += take;
    n -= take;
    batch_size_ += take;
    if (batch_size_ == batch_bytes_) Flush();
  }
}

void ByteWriter::Flush() {
  if (sink_status_.ok() && !batch_.empty()) {
    sink_status_ = sink_(batch_.data(), batch_.size());
  }
  batch_.clear();
  buf_.clear();
  batch_size_ = 0;
  staged_tail_ = false;
}

Status ByteWriter::Finish() {
  if (batch_bytes_ > 0) Flush();
  return sink_status_;
}

std::string EncodeToString(const std::function<void(ByteWriter*)>& encode) {
  size_t size = 0;
  ByteWriter counter(ByteWriter::kMaxStagingBytes,
                     [&](const ByteSpan* pieces, size_t count) {
                       for (size_t i = 0; i < count; ++i) {
                         size += pieces[i].size;
                       }
                       return Status::OK();
                     });
  encode(&counter);
  (void)counter.Finish();  // the counting sink never fails
  ByteWriter w;
  w.Reserve(size);
  encode(&w);
  return w.Take();
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
