// CRC32-framed append-only write-ahead log (the RocksDB/bptree WAL
// idiom, sized for one small commit record per training round).
//
// On-disk format: a sequence of records, each framed as
//
//   u32 magic   ("DWAL" — catches writes landing in the wrong file)
//   u32 length  (payload bytes)
//   u32 crc     (CRC-32 of the payload)
//   length payload bytes
//
// Appends are a single write(2) followed by fsync, so a crash can only
// damage the *tail*: a partial header, a partial payload, or (on rare
// sector-boundary tears) a payload whose CRC no longer matches. ReadWal
// therefore replays records front-to-back and stops cleanly at the first
// frame that fails validation — everything before it is trusted,
// everything after is discarded, and the caller gets the reason so it can
// log the degradation loudly. A damaged *tail* is an expected crash
// artifact (clean=false, OK status); an unreadable *file* is an
// environment problem (error status).

#ifndef DPBR_DURABILITY_WAL_H_
#define DPBR_DURABILITY_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpbr {
namespace durability {

/// Magic leading every WAL record frame.
inline constexpr uint32_t kWalRecordMagic = 0x4C415744u;  // "DWAL"

/// Append handle on a WAL file. Move-only (owns the file descriptor).
class WalWriter {
 public:
  WalWriter() = default;
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Opens `path` for appending, creating it when missing. With
  /// `truncate`, existing contents are discarded first (the resume path:
  /// replayed records are subsumed by the snapshot being restored).
  [[nodiscard]] static Result<WalWriter> Open(const std::string& path,
                                bool truncate = false);

  /// Frames `payload` and appends it with one write + fsync. The record
  /// is durable when this returns OK.
  [[nodiscard]] Status Append(const std::string& payload);

  /// Closes the descriptor (also done by the destructor, which swallows
  /// errors; call Close() where the result matters).
  [[nodiscard]] Status Close();

 private:
  WalWriter(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// Replay result: the valid record prefix plus how the scan ended.
struct WalReadResult {
  std::vector<std::string> records;
  /// False when the scan stopped at a damaged frame before the end of
  /// the file; `damage` then holds the reason and offset.
  bool clean = true;
  std::string damage;
  /// Byte length of the valid prefix (where a repair would truncate to).
  size_t valid_bytes = 0;
};

/// Replays `path` front-to-back. A missing file is an empty, clean log.
/// Torn/truncated/corrupt frames end the scan as described above; hard
/// I/O errors (unreadable file) return a non-OK status.
[[nodiscard]] Result<WalReadResult> ReadWal(const std::string& path);

}  // namespace durability
}  // namespace dpbr

#endif  // DPBR_DURABILITY_WAL_H_
