// Fixed-size thread pool and a blocking, dynamically-claimed ParallelFor.
//
// A pool runs one dispatch at a time: ParallelFor publishes a borrowed
// body and an index range, and the dispatching thread and the pool's
// workers claim indices from an atomic counter, one index per claim,
// until the range is exhausted. Long ranges of cheap work go through
// ParallelForBlocked, so each claim is a whole block. The claim order —
// which thread runs which index, and when — is free; every caller
// writes per-index outputs (or per-block ones under ParallelForBlocked,
// whose block boundaries depend on the shape only) and folds them in a
// fixed order after the dispatch, so results are bitwise identical
// under any pool size and any schedule. All randomness inside a body
// must come from per-index SplitRng streams for the same reason.
//
// Dynamic claiming lets one dispatch mix items of very different cost —
// the federated round runs every example of every cohort member's local
// step and each auxiliary example's server-gradient row in one
// ParallelFor, and no thread waits on another's long item.
//
// Threads. ThreadPool(n) runs a dispatch on n threads: the caller plus
// n − 1 spawned workers, so a pool sized to the hardware never puts
// more runnable threads than cores on a dispatch. The caller claims
// indices like a worker; a body it runs sees this pool's last slot, and
// a ParallelFor issued from that body (or from a worker's) runs inline.
//
// Spin, then sleep. An idle worker polls the pool's dispatch generation,
// yielding its core between polls, for kSpinBeforeSleep (1 ms) before
// it blocks on the condition variable, and a caller whose claims are done
// polls for the workers still running an item the same way. The
// round's serial gaps between dispatches are shorter than that, so
// inside a round no thread pays a wake-up. A
// dispatch completes when its items are done: once every index is
// claimed the caller revokes the tickets no worker took, so a worker
// that wakes late neither delays the dispatch nor runs its body.
//
// Slots. ThisThreadSlot() is a worker's index in [0, n − 1) and n − 1
// for every thread outside the pool, which is the slot a caller's
// bodies run on. ThreadSlotCount() is n: exactly the threads that can
// run a body of one dispatch, which hold distinct slots while they do.

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

/// A caller plus a fixed set of worker threads serving one ParallelFor
/// dispatch at a time. Concurrent dispatches from threads outside the
/// pool are serialized at entry; dispatches from inside a body run
/// inline.
class ThreadPool {
 public:
  /// A pool of `num_threads` (>= 1) threads per dispatch: the caller
  /// and num_threads − 1 spawned workers.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a dispatch, the caller included.
  size_t num_threads() const { return num_threads_; }

  /// Process-wide pool sized to the hardware concurrency (lazily created).
  static ThreadPool& Global();

  /// Pool the single-argument ParallelFor overload dispatches to: the
  /// ScopedPoolOverride in effect, else Global().
  static ThreadPool& Ambient();

 private:
  friend void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                          FunctionRef<void(size_t)> body);

  /// Runs body(i) for every i in [begin, end) on the caller and up to
  /// `helpers` workers, and returns when every index is done.
  void Dispatch(size_t begin, size_t end, size_t helpers,
                FunctionRef<void(size_t)> body);
  void WorkerLoop(size_t slot);
  /// Claims and runs indices of the dispatch in flight until none is left.
  void RunClaims(FunctionRef<void(size_t)> body, size_t end);

  size_t num_threads_;
  std::vector<std::thread> threads_;
  // Serializes dispatches from outside the pool: one range in flight.
  std::mutex dispatch_mu_;

  // The dispatch in flight. body_, end_ and tickets_ are written under
  // mu_, and generation_ is raised with them (and at shutdown), so a
  // polling worker sees a new dispatch without the lock. A worker reads
  // body_ and end_ only after it takes a ticket under mu_; the caller
  // revokes the tickets left once every index is claimed and then waits
  // for running_ — the ticket holders still inside the claim loop — to
  // drain. next_ is the claim counter, advanced one index per claim.
  std::mutex mu_;
  std::condition_variable cv_work_;  // a new generation
  std::condition_variable cv_done_;  // running_ reached zero
  std::atomic<uint64_t> generation_{0};
  FunctionRef<void(size_t)> body_;
  size_t end_ = 0;
  std::atomic<size_t> next_{0};
  size_t tickets_ = 0;
  std::atomic<size_t> running_{0};
  bool stop_ = false;
};

/// Runs body(i) for i in [begin, end) across the ambient pool and blocks
/// until all iterations complete. The caller and the pool workers claim
/// indices dynamically, in no fixed order. Runs inline, in index order,
/// for single-iteration ranges, one-thread pools, and when called from
/// inside a body (a nested dispatch would otherwise wait on occupied
/// threads). Results must not depend on the claim order: per-index work
/// only, with any reduction done by the caller in fixed order.
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

/// The calling thread's slot: its worker index in [0, n − 1) when it is
/// a worker of a pool of n threads; inside a body the caller runs, that
/// pool's last slot n − 1; else ThreadPool::Ambient().num_threads() − 1
/// (the one slot shared by threads outside the pool, which is the slot
/// their dispatches' bodies run on). Distinct across the bodies of one
/// dispatch running at the same time, so callers can keep per-slot
/// scratch (warm models, buffers) that bodies use without locking; size
/// such scratch to ThreadSlotCount().
size_t ThisThreadSlot();

/// Slots a dispatch issued from the calling thread can touch: per-slot
/// scratch sized to this before the dispatch is safely indexed by
/// ThisThreadSlot() in its bodies, whether the dispatch fans out to the
/// ambient pool or runs inline on the caller.
size_t ThreadSlotCount();

/// Number of ParallelFor invocations so far that actually fanned out to
/// pool workers (inline runs — single-iteration ranges, one-thread
/// pools, nested calls from inside a body — do not count). Pure
/// observability: tests diff this counter around a call to prove
/// dispatch contracts such as "an nn forward or backward pass issues
/// none". Monotonic, process-wide, atomic (safe under TSan).
uint64_t ParallelDispatchCount();

}  // namespace dpbr

#endif  // DPBR_COMMON_THREAD_POOL_H_
