#include "durability/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "durability/bytes.h"
#include "durability/crc32.h"
#include "durability/io.h"

namespace dpbr {
namespace durability {
namespace {

// Bytes of the container header (magic, version, crc, length).
constexpr size_t kHeaderBytes = 24;
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".ckpt";

// Parses "checkpoint-<round>.ckpt"; returns false for anything else
// (including the atomic writer's *.tmp debris).
bool ParseCheckpointName(const std::string& name, int64_t* round) {
  size_t prefix = sizeof(kPrefix) - 1;
  size_t suffix = sizeof(kSuffix) - 1;
  if (name.size() <= prefix + suffix) return false;
  if (name.compare(0, prefix, kPrefix) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kSuffix) != 0) return false;
  const std::string digits = name.substr(prefix, name.size() - prefix -
                                         suffix);
  if (digits.empty()) return false;
  char* end = nullptr;
  long long value = std::strtoll(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0) return false;
  *round = value;
  return true;
}

// Rounds of every complete checkpoint file in `dir`, ascending. A missing
// directory is an empty list.
Result<std::vector<int64_t>> ListCheckpointRounds(const std::string& dir) {
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return std::vector<int64_t>{};
    }
    return names.status();
  }
  std::vector<int64_t> rounds;
  for (const std::string& name : names.value()) {
    int64_t round = 0;
    if (ParseCheckpointName(name, &round)) rounds.push_back(round);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

// The container into an empty temp file, in one pass over the payload.
// The header's CRC and length exist only once the payload has streamed
// past, so its bytes are reserved first and filled in last.
Status WriteFramedPayload(const PayloadEncoder& encode, FileSink* file) {
  const char reserved[kHeaderBytes] = {};
  DPBR_RETURN_NOT_OK(file->Write(reserved, sizeof(reserved)));
  uint32_t crc = 0;
  uint64_t length = 0;
  std::vector<ByteSpan> segments;
  std::vector<uint32_t> segment_crcs;
  auto sink = [&](const ByteSpan* pieces, size_t count) {
    segments.clear();
    uint64_t n = 0;
    for (const ByteSpan* p = pieces; p != pieces + count; ++p) {
      for (size_t off = 0; off < p->size; off += kCheckpointChunkBytes) {
        segments.push_back(
            {p->data + off, std::min(p->size - off, kCheckpointChunkBytes)});
      }
      n += p->size;
    }
    // Each segment's CRC from zero, joined in stream order: the CRC of
    // the batch continued from the bytes before it.
    segment_crcs.resize(segments.size());
    ParallelFor(0, segments.size(), [&](size_t i) {
      segment_crcs[i] = Crc32(segments[i].data, segments[i].size);
    });
    for (size_t i = 0; i < segments.size(); ++i) {
      crc = Crc32Combine(crc, segment_crcs[i], segments[i].size);
    }
    DPBR_RETURN_NOT_OK(file->WriteV(pieces, count));
    file->StartWriteback(kHeaderBytes + length, n);
    length += n;
    return Status::OK();
  };
  ByteWriter payload(kCheckpointBatchBytes, sink);
  encode(&payload);
  DPBR_RETURN_NOT_OK(payload.Finish());
  ByteWriter header;
  header.PutU64(kCheckpointMagic);
  header.PutU32(kCheckpointVersion);
  header.PutU32(crc);
  header.PutU64(length);
  return file->WriteAt(header.data().data(), header.data().size(), 0);
}

}  // namespace

std::string CheckpointPath(const std::string& dir, int64_t round) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%lld%s", kPrefix,
                static_cast<long long>(round), kSuffix);
  return dir + "/" + name;
}

Status WriteCheckpoint(const std::string& dir, int64_t round,
                       const PayloadEncoder& encode) {
  if (round < 0) return Status::InvalidArgument("negative checkpoint round");
  DPBR_RETURN_NOT_OK(EnsureDir(dir));
  auto fill = [&](FileSink* file) { return WriteFramedPayload(encode, file); };
  DPBR_RETURN_NOT_OK(StreamFileAtomic(CheckpointPath(dir, round), fill));

  // Retention: drop everything but the newest kCheckpointsRetained. A
  // failed unlink only costs disk, so log instead of failing the commit.
  DPBR_ASSIGN_OR_RETURN(std::vector<int64_t> rounds,
                        ListCheckpointRounds(dir));
  while (rounds.size() > static_cast<size_t>(kCheckpointsRetained)) {
    Status st = RemoveFile(CheckpointPath(dir, rounds.front()));
    if (!st.ok()) {
      DPBR_LOG_STREAM(Warning) << "checkpoint retention: " << st.ToString();
    }
    rounds.erase(rounds.begin());
  }
  return Status::OK();
}

Status WriteCheckpoint(const std::string& dir, int64_t round,
                       const std::string& payload) {
  return WriteCheckpoint(dir, round, [&](ByteWriter* w) {
    w->PutBytes(payload.data(), payload.size());
  });
}

Result<std::string> ReadCheckpointPayload(const std::string& path) {
  DPBR_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  ByteReader reader(data);
  uint64_t magic = 0;
  uint32_t version = 0, crc = 0;
  uint64_t length = 0;
  if (!reader.GetU64(&magic).ok() || !reader.GetU32(&version).ok() ||
      !reader.GetU32(&crc).ok() || !reader.GetU64(&length).ok()) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "': truncated header");
  }
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("checkpoint '" + path + "': bad magic");
  }
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "': unsupported version " +
                                   std::to_string(version));
  }
  if (length != reader.remaining()) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "': payload length " +
        std::to_string(length) + " does not match the " +
        std::to_string(reader.remaining()) + " bytes present");
  }
  if (Crc32(data.data() + kHeaderBytes, length) != crc) {
    return Status::InvalidArgument("checkpoint '" + path +
                                   "': payload CRC mismatch");
  }
  data.erase(0, kHeaderBytes);
  return data;
}

Result<MaybeCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  DPBR_ASSIGN_OR_RETURN(std::vector<int64_t> rounds,
                        ListCheckpointRounds(dir));
  MaybeCheckpoint out;
  int skipped = 0;
  for (auto it = rounds.rbegin(); it != rounds.rend(); ++it) {
    std::string path = CheckpointPath(dir, *it);
    Result<std::string> payload = ReadCheckpointPayload(path);
    if (payload.ok()) {
      out.found = true;
      out.checkpoint.round = *it;
      out.checkpoint.payload = std::move(payload).value();
      out.checkpoint.path = std::move(path);
      out.checkpoint.skipped_corrupt = skipped;
      return out;
    }
    DPBR_LOG_STREAM(Warning) << "skipping unusable checkpoint: "
                      << payload.status().ToString();
    ++skipped;
  }
  return out;
}

}  // namespace durability
}  // namespace dpbr
