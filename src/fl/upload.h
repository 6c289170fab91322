// The round's upload storage, from workers to the server.

#ifndef DPBR_FL_UPLOAD_H_
#define DPBR_FL_UPLOAD_H_

#include <cstddef>
#include <vector>

#include "common/span.h"

namespace dpbr {
namespace fl {

/// \brief Contiguous storage for one round's uploads: a single
/// `rows x dim` row-major float block.
///
/// The round protocol (see docs/architecture.md, "Upload arena"):
///   1. The trainer calls Reset(n, d), which sizes the block and leaves
///      its contents as they were: each row is wholly written by its
///      owner below.
///   2. Each participating worker writes its whole upload into Row(i)
///      inside the round (row i is owned by exactly one local step).
///   3. The attack forges into the Byzantine-reserved rows via ForgeInto.
///   4. Server::Step aggregates a zero-copy span() view; the sanitize
///      pass and the dpbr first stage may zero rows in place.
/// Rows are wholly rewritten at steps 2 and 3 of the next round, so no
/// cleanup or zeroing pass is needed. Memory is grow-only: Reset never
/// shrinks the backing vector, so steady-state training does one
/// allocation total.
class UploadArena {
 public:
  UploadArena() = default;

  /// Sizes the arena for `rows` uploads of dimension `dim`. Existing
  /// storage is reused, not cleared, when large enough; only newly grown
  /// storage starts at zero. Whoever owns a row writes all of it.
  void Reset(size_t rows, size_t dim);

  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }

  /// Mutable pointer to row i (i < rows()).
  float* Row(size_t i) { return data_.data() + i * dim_; }
  const float* Row(size_t i) const { return data_.data() + i * dim_; }

  /// Mutable view of the whole block (aggregators may zero rows).
  RowSpan span() { return RowSpan(data_.data(), rows_, dim_); }
  /// Read-only view of the whole block.
  ConstRowSpan cspan() const {
    return ConstRowSpan(data_.data(), rows_, dim_);
  }

  /// Bytes currently reserved by the backing storage (capacity, not
  /// logical size) — what a peak-memory audit should count.
  size_t capacity_bytes() const { return data_.capacity() * sizeof(float); }

 private:
  std::vector<float> data_;
  size_t rows_ = 0;
  size_t dim_ = 0;
};

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_FL_UPLOAD_H_
