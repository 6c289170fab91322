#include "fl/upload.h"

namespace dpbr {
namespace fl {

void UploadArena::Reset(size_t rows, size_t dim) {
  rows_ = rows;
  dim_ = dim;
  // Grow only: every row is wholly written by its owner each round, so
  // reused storage is not cleared, and capacity is never released.
  if (data_.size() < rows * dim) data_.resize(rows * dim);
}

}  // namespace fl
}  // namespace dpbr
