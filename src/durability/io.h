// POSIX file primitives for the durability layer, with the failure modes
// surfaced as Status instead of aborts: a full disk, a yanked directory or
// a permission change must degrade the run, never kill it.
//
// The one non-trivial primitive is StreamFileAtomic — the temp-file +
// fsync + rename + directory-fsync sequence that guarantees a reader sees
// either the complete previous file or the complete new one, regardless of
// where a crash lands (the standard checkpoint idiom; rename(2) is atomic
// within a filesystem and the directory fsync persists the name change).
// Its caller writes the contents in pieces, so a large file never has to
// exist in memory; WriteFileAtomic is the one-string convenience over it.

#ifndef DPBR_DURABILITY_IO_H_
#define DPBR_DURABILITY_IO_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "durability/bytes.h"

namespace dpbr {
namespace durability {

/// Creates `path` as a directory when it does not already exist,
/// building missing parents (mkdir -p). Existing directories are OK.
[[nodiscard]] Status EnsureDir(const std::string& path);

/// True when `path` names an existing file or directory.
bool PathExists(const std::string& path);

/// Whole-file read into a buffer sized once from fstat. NotFound when
/// the file does not exist.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// The open temp file StreamFileAtomic hands to its fill callback.
class FileSink {
 public:
  FileSink(int fd, const std::string& path) : fd_(fd), path_(path) {}

  /// Appends `n` bytes after everything Write has written so far.
  [[nodiscard]] Status Write(const void* data, size_t n);
  /// Writes `n` bytes at `offset` (short writes retried); later Writes
  /// still append where the previous Write ended.
  [[nodiscard]] Status WriteAt(const void* data, size_t n, uint64_t offset);
  /// Appends `count` pieces, in order, with gathered writes (pwritev;
  /// short writes retried).
  [[nodiscard]] Status WriteV(const ByteSpan* pieces, size_t count);
  /// Starts writing `n` bytes at `offset` back to the device without
  /// waiting (Linux sync_file_range; nothing elsewhere), so the closing
  /// fsync finds little left to write. A hint only: the fsync still
  /// decides, and reports any write error.
  void StartWriteback(uint64_t offset, uint64_t n);

 private:
  int fd_;
  const std::string& path_;
  uint64_t end_ = 0;
};

/// Atomically replaces `path` with whatever `fill` writes: creates
/// `path`.tmp in the same directory, runs `fill` on it, fsyncs, closes,
/// renames it over `path` and fsyncs the parent directory. When `fill`
/// or any step fails, the temp file is unlinked, `path` is left
/// untouched, and the first failure is returned.
[[nodiscard]] Status StreamFileAtomic(
    const std::string& path, const std::function<Status(FileSink*)>& fill);

/// StreamFileAtomic with `contents` as the whole file.
[[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                     const std::string& contents);

/// Unlinks `path`; missing files are OK (idempotent cleanup).
[[nodiscard]] Status RemoveFile(const std::string& path);

/// Names (not paths) of the entries in `dir`, sorted, "."/".." excluded.
[[nodiscard]] Result<std::vector<std::string>> ListDir(const std::string& dir);

/// fsyncs the directory itself, persisting renames/unlinks inside it.
[[nodiscard]] Status SyncDir(const std::string& dir);

}  // namespace durability
}  // namespace dpbr

#endif  // DPBR_DURABILITY_IO_H_
