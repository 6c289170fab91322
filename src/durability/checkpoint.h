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
// The writer streams the payload from its producer in batches of
// kCheckpointBatchBytes and fills in the header last (its CRC and length
// are known only then). A batch references the producer's large spans
// (the model and momentum vectors) where they live and copies only the
// small fields, into a staging buffer of at most 1 MiB, so a checkpoint
// costs neither a copy of the payload nor a pass to make one. Each batch
// is CRC'd in parallel, in segments of at most kCheckpointChunkBytes
// joined in stream order by Crc32Combine, goes to the temp file as one
// gathered write, and has its writeback started at once, so the closing
// fsync waits on little more than the last batch.
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
/// Bytes per batch of the streaming writer: one gathered write and one
/// writeback range each.
inline constexpr size_t kCheckpointBatchBytes = size_t{4} << 20;
/// The longest segment one parallel CRC task covers.
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
/// fully absent; on failure no new file or temp file remains. Every
/// buffer `encode` hands the writer must stay unchanged until
/// WriteCheckpoint returns (see ByteWriter). The CRC runs on the ambient
/// pool: call it outside any dispatch, or its segments run inline.
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
