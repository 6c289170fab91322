// Deterministic, splittable random number generation.
//
// Every source of randomness in dpbr (data synthesis, batch sampling, DP
// noise, attacks) derives from a SplitRng stream keyed by
// (seed, stream components...). Streams are independent regardless of the
// order or thread in which they are consumed, which makes whole federated
// runs bit-reproducible under ParallelFor.
//
// Gaussian draws:
//  * the bulk FillGaussian / AddGaussian APIs (the DP noise path) use a
//    256-layer ziggurat. Bulk fills are split into fixed-size blocks,
//    each drawing from an independent child stream, so the output is
//    bit-identical under any thread-pool size and equal to the
//    documented sequential per-block draw loop;
//  * the scalar Gaussian() is the Box-Muller transform, the stream data
//    synthesis draws from.

#ifndef DPBR_COMMON_RNG_H_
#define DPBR_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace dpbr {

/// Elements per FillGaussian/AddGaussian work block. Each block b draws
/// from the independent child stream SplitRng(base, {b}) where `base` is
/// one Next64() consumed from the parent — a shape-only split, so bulk
/// fills are bit-identical under thread pools of any size.
constexpr size_t kGaussianFillBlock = 4096;

/// SplitMix64-based counter RNG with Gaussian sampling.
///
/// The state is a 64-bit key derived by hashing the seed with an arbitrary
/// number of stream identifiers, plus a 64-bit counter. Each Next64() call
/// applies the SplitMix64 output function to (key + counter++), giving a
/// high-quality stateless-style stream. Equal (seed, stream ids) always
/// produce the same sequence.
class SplitRng {
 public:
  /// Root stream for `seed`.
  explicit SplitRng(uint64_t seed);

  /// Sub-stream keyed by (seed, ids...). E.g.
  /// SplitRng(seed, {worker, round, kNoise}).
  SplitRng(uint64_t seed, std::initializer_list<uint64_t> ids);

  /// Derives an independent child stream; does not perturb this stream.
  SplitRng Split(uint64_t id) const;

  /// Uniform 64 random bits.
  uint64_t Next64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (uses the cached spare draw).
  double Gaussian();

  /// Normal with the given mean / stddev (Box-Muller).
  double Gaussian(double mean, double stddev);

  /// Standard normal via the 256-layer ziggurat. Advances this stream by
  /// however many Next64() draws the rejection loop consumes (one on
  /// ~98.8% of draws). Does not touch the Box-Muller spare.
  double GaussianZiggurat();

  /// Fills `out` with i.i.d. N(0, stddev^2) draws.
  ///
  /// Consumes exactly one Next64() from this stream as `base`, then block
  /// b of kGaussianFillBlock elements draws sequentially from
  /// SplitRng(base, {b}) via GaussianZiggurat(). Blocks run under the
  /// ambient thread pool; the split depends only on n, so the result is
  /// bit-identical for pools of any size and equal to the sequential
  /// per-block loop written with the public API.
  void FillGaussian(float* out, size_t n, double stddev);

  /// Adds i.i.d. N(0, stddev^2) noise to `data` in place: data[i] += g_i
  /// where (g_i) is exactly the FillGaussian output for the same state.
  /// This is the DP upload hot path (no scratch buffer, same contract).
  void AddGaussian(float* data, size_t n, double stddev);

  /// Block `block` of a bulk fill keyed by `base` (the one Next64() the
  /// fill consumed): n <= kGaussianFillBlock sequential draws from
  /// SplitRng(base, {block}), scaled by stddev and written into (or, with
  /// `accumulate`, added to) data[0, n). FillGaussian and AddGaussian run
  /// exactly this per block, so a caller that schedules the blocks itself
  /// gets the same stream.
  static void GaussianBlock(uint64_t base, uint64_t block, float* data,
                            size_t n, double stddev, bool accumulate);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Samples k indices from [0, n) without replacement (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Raw stream state, for durable snapshots: the derived key and the
  /// number of Next64() draws consumed so far.
  uint64_t state_key() const { return key_; }
  uint64_t state_counter() const { return counter_; }

  /// Reconstructs a stream from saved state. The continuation draws the
  /// exact sequence the original stream would have from that point, with
  /// one caveat: a cached Box-Muller spare is NOT part of the state, so
  /// only capture state at points where no spare is pending (dpbr's
  /// durable snapshots are taken between rounds, where every stream is
  /// either fresh or fully drained).
  static SplitRng FromState(uint64_t key, uint64_t counter) {
    return SplitRng(key, counter);
  }

 private:
  SplitRng(uint64_t key, uint64_t counter)
      : key_(key), counter_(counter), has_spare_(false), spare_(0.0) {}

  /// Shared bulk kernel behind FillGaussian / AddGaussian: one
  /// GaussianBlock per block, under the ambient pool.
  void BulkGaussian(float* data, size_t n, double stddev, bool accumulate);

  uint64_t key_;
  uint64_t counter_;
  bool has_spare_;
  double spare_;
};

}  // namespace dpbr

#endif  // DPBR_COMMON_RNG_H_
