// Micro-benchmarks (google-benchmark) for the durability layer: WAL
// appends (one write+fsync per committed round), full snapshot
// checkpoint writes (tmp + fsync + rename) at representative state sizes,
// and the CRC-32 that frames both.
//
// The write benchmarks are visible in the ratchet's merged output but
// deliberately NOT in the regression gate's HOT_BENCHMARKS: both are
// fsync-bound, and fsync latency on shared CI runners varies far beyond
// the gate's slack. The CRC pair is CPU-only: the gate's RATIO_GATES
// holds slicing-by-8 against the bytewise reference below.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/crc32.h"
#include "durability/io.h"
#include "durability/wal.h"
#include "fl/round_state.h"

namespace {

using namespace dpbr;

std::string MakeTempDir() {
  std::string tmpl = "/tmp/dpbr_bench_dur_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::abort();
  }
  return buf.data();
}

void RemoveTree(const std::string& dir) {
  auto names = durability::ListDir(dir);
  if (names.ok()) {
    for (const auto& n : names.value()) {
      (void)durability::RemoveFile(dir + "/" + n);
    }
  }
  std::remove(dir.c_str());
}

// One WAL append per committed round: a RoundCommitRecord-sized payload
// through the framed write+fsync path.
void BM_WalAppend(benchmark::State& state) {
  std::string dir = MakeTempDir();
  auto writer =
      durability::WalWriter::Open(dir + "/wal.log", /*truncate=*/true);
  if (!writer.ok()) {
    state.SkipWithError(writer.status().ToString().c_str());
    RemoveTree(dir);
    return;
  }
  durability::WalWriter wal = std::move(writer).value();
  fl::RoundCommitRecord rec;
  rec.round = 1;
  rec.participants = 20;
  rec.has_eval = 1;
  rec.eval_epoch = 1.0;
  rec.eval_accuracy = 0.9;
  const std::string payload = rec.Encode();
  for (auto _ : state) {
    Status s = wal.Append(payload);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    ++rec.round;
  }
  (void)wal.Close();
  RemoveTree(dir);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_WalAppend);

// Full snapshot write at model dimension d (the paper's MLP is d=25450;
// Arg covers a small synthetic model and the paper scale).
void BM_CheckpointWrite(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  std::string dir = MakeTempDir();
  // Representative payload: flat params plus 8 workers x 16 momentum
  // slots, encoded once outside the timed loop.
  fl::PersistentRoundState st;
  st.fingerprint.dim = dim;
  st.model_params.assign(dim, 0.5f);
  st.honest_momentum.assign(
      8, std::vector<std::vector<float>>(16, std::vector<float>(dim, 0.1f)));
  st.worker_rng_keys.assign(8, 7);
  st.completed_round = 1;
  const std::string payload = fl::EncodeRoundState(st);
  int64_t round = 1;
  for (auto _ : state) {
    Status s = durability::WriteCheckpoint(dir, round++, payload);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  RemoveTree(dir);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CheckpointWrite)->Arg(512)->Arg(25450);

// The trainer's in-run snapshot: the same nested-momentum state streamed
// through the encoder from its live vectors, never encoded to a string.
// fsync-bound like BM_CheckpointWrite, so no gate reads it.
void BM_CheckpointWriteLive(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  std::string dir = MakeTempDir();
  std::vector<float> params(dim, 0.5f);
  std::vector<std::vector<std::vector<float>>> momentum(
      8, std::vector<std::vector<float>>(16, std::vector<float>(dim, 0.1f)));
  std::string aggregator_state;
  dp::SpentLedger ledger;
  fl::TrainingHistory history;
  fl::RoundStateView view;
  view.fingerprint.dim = dim;
  view.completed_round = 1;
  view.model_params = &params;
  for (const auto& m : momentum) view.honest_momentum.push_back(&m);
  view.worker_rng_keys.assign(8, 7);
  view.aggregator_state = &aggregator_state;
  view.ledger = &ledger;
  view.history = &history;
  auto encode = [&](durability::ByteWriter* w) {
    fl::EncodeRoundState(view, w);
  };
  const size_t bytes = durability::EncodeToString(encode).size();
  int64_t round = 1;
  for (auto _ : state) {
    Status s = durability::WriteCheckpoint(dir, round++, encode);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  RemoveTree(dir);
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CheckpointWriteLive)->Arg(512)->Arg(25450);

// The one-byte-per-step table CRC-32 that slicing-by-8 replaced: the
// ratio gate's reference, same polynomial and values.
uint32_t BytewiseCrc32(const unsigned char* p, size_t len) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> CrcInput(size_t n) {
  std::vector<unsigned char> buf(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<unsigned char>((i * 2654435761u) >> 24);
  }
  return buf;
}

// CRC-32 over a buffer the size of a paper-scale momentum snapshot.
void BM_Crc32(benchmark::State& state) {
  const std::vector<unsigned char> buf =
      CrcInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(durability::Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Arg(64 << 20);

void BM_Crc32Bytewise(benchmark::State& state) {
  const std::vector<unsigned char> buf =
      CrcInput(static_cast<size_t>(state.range(0)));
  if (BytewiseCrc32(buf.data(), buf.size()) !=
      durability::Crc32(buf.data(), buf.size())) {
    state.SkipWithError("slicing-by-8 CRC disagrees with the reference");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BytewiseCrc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32Bytewise)->Arg(64 << 20);

}  // namespace

BENCHMARK_MAIN();
