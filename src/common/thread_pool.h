// Fixed-size thread pool and a blocking, dynamically-claimed ParallelFor.
//
// A pool runs one dispatch at a time: ParallelFor publishes a borrowed
// body and an index range, and the woken workers claim indices from an
// atomic counter, one index per claim, until the range is exhausted.
// Long ranges of cheap work go through ParallelForBlocked, so each
// claim is a whole block. The claim order — which thread runs which
// index, and when — is free; every caller writes per-index outputs (or
// per-block ones under ParallelForBlocked, whose block boundaries
// depend on the shape only) and folds them in a fixed order after the
// dispatch, so results are bitwise identical under any pool size and
// any schedule. All randomness inside a body must come from per-index
// SplitRng streams for the same reason.
//
// Dynamic claiming lets one dispatch mix items of very different cost —
// the federated round runs each cohort member's local step and each
// auxiliary example's server-gradient row in one ParallelFor, and the
// cheap rows fill the threads the local steps leave idle.

#ifndef DPBR_COMMON_THREAD_POOL_H_
#define DPBR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.h"

namespace dpbr {

/// A fixed set of worker threads serving one ParallelFor dispatch at a
/// time. Concurrent dispatches from threads outside the pool are
/// serialized at entry; dispatches from inside a pool worker run inline.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Process-wide pool sized to the hardware concurrency (lazily created).
  static ThreadPool& Global();

  /// Pool the single-argument ParallelFor overload dispatches to: the
  /// ScopedPoolOverride in effect, else Global().
  static ThreadPool& Ambient();

 private:
  friend void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                          FunctionRef<void(size_t)> body);

  /// Runs body(i) for every i in [begin, end) on `workers` pool threads
  /// and returns when all of them are done.
  void Dispatch(size_t begin, size_t end, size_t workers,
                FunctionRef<void(size_t)> body);
  void WorkerLoop(size_t slot);

  std::vector<std::thread> threads_;
  // Serializes dispatches from outside the pool: one range in flight.
  std::mutex dispatch_mu_;

  // The dispatch in flight. body_ and end_ are written under mu_ before
  // tickets_ is raised, and read by a worker after it takes a ticket
  // under mu_; next_ is the claim counter, advanced one index per claim.
  std::mutex mu_;
  std::condition_variable cv_work_;  // tickets available, or stop
  std::condition_variable cv_done_;  // the last ticket holder finished
  FunctionRef<void(size_t)> body_;
  size_t end_ = 0;
  std::atomic<size_t> next_{0};
  size_t tickets_ = 0;      // workers still to join the dispatch
  size_t outstanding_ = 0;  // workers that have not finished it yet
  bool stop_ = false;
};

/// Runs body(i) for i in [begin, end) across the ambient pool and blocks
/// until all iterations complete. Pool workers claim indices dynamically,
/// in no fixed order. Runs inline, in index order, for single-iteration
/// ranges, one-thread pools, and when called from inside a pool worker
/// (a nested dispatch would otherwise wait on occupied workers). Results
/// must not depend on the claim order: per-index work only, with any
/// reduction done by the caller in fixed order.
void ParallelFor(size_t begin, size_t end, FunctionRef<void(size_t)> body);

/// Same as ParallelFor but on an explicit pool.
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 FunctionRef<void(size_t)> body);

/// While alive, routes the pool-less ParallelFor overload to `pool`
/// instead of ThreadPool::Global(). Lets tests and benchmarks run the
/// production aggregation code under pool sizes 1/2/N to check that
/// results are bit-identical and to measure scaling. Not reentrant:
/// create and destroy on one thread, one override at a time.
class ScopedPoolOverride {
 public:
  explicit ScopedPoolOverride(ThreadPool* pool);
  ~ScopedPoolOverride();

  ScopedPoolOverride(const ScopedPoolOverride&) = delete;
  ScopedPoolOverride& operator=(const ScopedPoolOverride&) = delete;

 private:
  ThreadPool* prev_;
};

/// Splits `total` indices into fixed-size blocks and runs
/// body(block_begin, block_end) for each block across the ambient pool.
/// The block boundaries depend only on (total, block_size), never on the
/// pool, so per-block reductions are deterministic under any thread
/// count.
void ParallelForBlocked(size_t total, size_t block_size,
                        FunctionRef<void(size_t, size_t)> body);

/// The calling thread's slot: its worker index in [0, num_threads) when
/// it is a pool worker, else ThreadPool::Ambient().num_threads() (the
/// one slot shared by threads outside the pool, which run dispatches
/// inline or wait on them). Stable for a thread's lifetime, and distinct
/// across the bodies of one dispatch running at the same time, so
/// callers can keep per-slot scratch (warm models, buffers) that bodies
/// use without locking; size such scratch to ThreadSlotCount().
size_t ThisThreadSlot();

/// Slots a dispatch issued from the calling thread can touch: per-slot
/// scratch sized to this before the dispatch is safely indexed by
/// ThisThreadSlot() in its bodies, whether the dispatch fans out to the
/// ambient pool or runs inline on the caller.
size_t ThreadSlotCount();

/// Number of ParallelFor invocations so far that actually fanned out to
/// pool workers (inline runs — single-iteration ranges, one-thread
/// pools, nested calls from inside a worker — do not count). Pure
/// observability: tests diff this counter around a call to prove
/// dispatch contracts such as "an nn forward or backward pass issues
/// none". Monotonic, process-wide, atomic (safe under TSan).
uint64_t ParallelDispatchCount();

}  // namespace dpbr

#endif  // DPBR_COMMON_THREAD_POOL_H_
