// Test helper: literal upload rows as one fl::UploadArena, the only form
// in which the library accepts a round's uploads.

#ifndef DPBR_TESTS_FL_UPLOAD_ROWS_H_
#define DPBR_TESTS_FL_UPLOAD_ROWS_H_

#include <algorithm>
#include <initializer_list>

#include "common/logging.h"
#include "fl/upload.h"

namespace dpbr {
namespace fl {

/// An arena holding `rows` in order; every row must have the same length.
inline UploadArena ArenaOf(
    std::initializer_list<std::initializer_list<float>> rows) {
  UploadArena arena;
  arena.Reset(rows.size(), rows.size() == 0 ? 0 : rows.begin()->size());
  size_t i = 0;
  for (const auto& row : rows) {
    DPBR_CHECK_EQ(row.size(), arena.dim());
    std::copy(row.begin(), row.end(), arena.Row(i++));
  }
  return arena;
}

}  // namespace fl
}  // namespace dpbr

#endif  // DPBR_TESTS_FL_UPLOAD_ROWS_H_
