// Snapshot checkpoints: whole-state files written atomically (temp file +
// fsync + rename + directory fsync) and validated end-to-end by CRC-32.
//
// On-disk format of one checkpoint file:
//
//   u64 magic        ("DPBRCKP1")
//   u32 version      (layout version of the *container*, not the payload)
//   u32 payload crc  (CRC-32 of the payload bytes)
//   u64 payload len
//   payload bytes    (opaque to this layer; see fl/round_state.h)
//
// The writer streams the payload from its producer through one fixed
// chunk buffer, CRC'ing each chunk as it goes to the temp file, and fills
// in the header last (its CRC and length are known only then) — so a
// checkpoint costs one chunk of memory, not a copy of the payload.
//
// Files are named checkpoint-<round>.ckpt inside a state directory that
// also holds the WAL. Because writes are atomic, a directory can only
// contain complete files (possibly from older rounds) plus ignorable
// *.tmp debris; corruption still happens — bit rot, truncation by other
// tools — so the loader walks checkpoints newest-first and falls back
// past any file that fails validation, logging each one loudly.

#ifndef DPBR_DURABILITY_CHECKPOINT_H_
#define DPBR_DURABILITY_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "durability/bytes.h"

namespace dpbr {
namespace durability {

inline constexpr uint64_t kCheckpointMagic = 0x31504B4352425044ull;
inline constexpr uint32_t kCheckpointVersion = 1;
/// Size of the writer's streaming buffer: the chunk each CRC update and
/// write(2) covers.
inline constexpr size_t kCheckpointChunkBytes = size_t{1} << 20;

/// How many snapshots WriteCheckpoint retains (the newest plus one
/// fallback for the corrupt-newest recovery path).
inline constexpr int kCheckpointsRetained = 2;

/// Path of the round-`round` checkpoint inside `dir`.
std::string CheckpointPath(const std::string& dir, int64_t round);

/// Produces a checkpoint payload by writing it into the given writer.
using PayloadEncoder = std::function<void(ByteWriter*)>;

/// Streams the payload `encode` produces, framed, into
/// checkpoint-<round>.ckpt in `dir` (created when missing), atomically,
/// then prunes all but the newest kCheckpointsRetained checkpoints. After
/// OK, a crash at any point leaves the file either fully present or
/// fully absent; on failure no new file or temp file remains.
[[nodiscard]] Status WriteCheckpoint(const std::string& dir, int64_t round,
                                     const PayloadEncoder& encode);

/// WriteCheckpoint of an already-encoded payload.
[[nodiscard]] Status WriteCheckpoint(const std::string& dir, int64_t round,
                                     const std::string& payload);

/// Validates and unwraps one checkpoint file. NotFound for a missing
/// file; InvalidArgument (with the failing check) for short files, bad
/// magic, unknown versions, length mismatches and CRC failures.
[[nodiscard]] Result<std::string> ReadCheckpointPayload(
    const std::string& path);

/// One recovered snapshot.
struct LoadedCheckpoint {
  int64_t round = 0;
  std::string payload;
  std::string path;
  /// Number of newer checkpoint files that failed validation and were
  /// skipped to reach this one (0 = the newest was valid). The caller
  /// should log a degradation warning when non-zero.
  int skipped_corrupt = 0;
};

/// Scans `dir` for checkpoint files and returns the newest that
/// validates, skipping (and warning about) corrupt ones. `found` is set
/// to false — with an OK status — when the directory is missing, empty,
/// or holds no valid checkpoint.
struct MaybeCheckpoint {
  bool found = false;
  LoadedCheckpoint checkpoint;
};
[[nodiscard]] Result<MaybeCheckpoint> LoadLatestCheckpoint(
    const std::string& dir);

}  // namespace durability
}  // namespace dpbr

#endif  // DPBR_DURABILITY_CHECKPOINT_H_
