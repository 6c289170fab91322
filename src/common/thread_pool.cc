#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace dpbr {
namespace {

constexpr size_t kOffPool = static_cast<size_t>(-1);

// Slot of the current thread while it can run bodies, or kOffPool: a
// worker's index within its pool, or the pool's last slot while the
// dispatching caller claims. A set slot also means "inside a body":
// nested ParallelFor calls then run inline instead of deadlocking the
// pool.
thread_local size_t t_slot = kOffPool;

// ScopedPoolOverride target; read by ThreadPool::Ambient().
ThreadPool* g_pool_override = nullptr;

// Fanned-out ParallelFor invocations; see ParallelDispatchCount().
std::atomic<uint64_t> g_dispatch_count{0};

// How long an idle thread polls before it blocks: longer than the
// serial gaps between a round's dispatches (all under 1 ms), short
// enough that a pool left idle between rounds stops using its cores.
constexpr std::chrono::microseconds kSpinBeforeSleep{1000};

// Polls `pending` until it reads false or kSpinBeforeSleep has passed,
// yielding the core between polls: where runnable threads outnumber
// free cores, the thread with work gets the core at once. The clock
// only decides when a thread stops polling and blocks; no result
// depends on it.
template <typename Pred>
void SpinWhile(Pred pending) {
  // dpbr-lint: allow(nondet-time) -- decides only when polling stops
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + kSpinBeforeSleep;
  while (pending() && Clock::now() < deadline) std::this_thread::yield();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) : num_threads_(num_threads) {
  DPBR_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::RunClaims(FunctionRef<void(size_t)> body, size_t end) {
  for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < end;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    body(i);
  }
}

void ThreadPool::Dispatch(size_t begin, size_t end, size_t helpers,
                          FunctionRef<void(size_t)> body) {
  std::lock_guard<std::mutex> serial(dispatch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = body;
    end_ = end;
    next_.store(begin, std::memory_order_relaxed);
    tickets_ = helpers;
    generation_.fetch_add(1, std::memory_order_release);
  }
  // Sleeping workers beyond `helpers` find no ticket and sleep again.
  cv_work_.notify_all();

  t_slot = num_threads_ - 1;
  RunClaims(body, end);
  t_slot = kOffPool;

  // Every index is claimed. Tickets no worker took are revoked, so the
  // dispatch waits only for the workers that hold one; their last
  // decrement releases their bodies' writes to this thread, and the
  // callable `body` borrows outlives every use of it.
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets_ = 0;
    body_ = nullptr;
  }
  auto busy = [this] { return running_.load(std::memory_order_acquire) != 0; };
  SpinWhile(busy);
  if (busy()) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return !busy(); });
  }
}

void ThreadPool::WorkerLoop(size_t slot) {
  t_slot = slot;
  uint64_t seen = 0;
  for (;;) {
    SpinWhile([&] {
      return generation_.load(std::memory_order_acquire) == seen;
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_work_.wait(lock, [&] {
      return generation_.load(std::memory_order_relaxed) != seen;
    });
    seen = generation_.load(std::memory_order_relaxed);
    if (stop_) return;
    if (tickets_ == 0) continue;  // done without this worker, or revoked
    --tickets_;
    running_.fetch_add(1, std::memory_order_relaxed);
    FunctionRef<void(size_t)> body = body_;
    const size_t end = end_;
    lock.unlock();
    RunClaims(body, end);
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Under mu_, so a caller between its check and its wait cannot
      // miss the notification.
      std::lock_guard<std::mutex> done(mu_);
      cv_done_.notify_one();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(std::max<size_t>(
      1, std::min<size_t>(16, std::thread::hardware_concurrency())));
  return pool;
}

ThreadPool& ThreadPool::Ambient() {
  return g_pool_override != nullptr ? *g_pool_override : Global();
}

ScopedPoolOverride::ScopedPoolOverride(ThreadPool* pool)
    : prev_(g_pool_override) {
  g_pool_override = pool;
}

ScopedPoolOverride::~ScopedPoolOverride() { g_pool_override = prev_; }

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 FunctionRef<void(size_t)> body) {
  if (end <= begin) return;
  size_t n = end - begin;
  if (n == 1 || pool.num_threads() == 1 || t_slot != kOffPool) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }
  g_dispatch_count.fetch_add(1, std::memory_order_relaxed);
  pool.Dispatch(begin, end, std::min(n, pool.num_threads()) - 1, body);
}

void ParallelFor(size_t begin, size_t end, FunctionRef<void(size_t)> body) {
  ParallelFor(ThreadPool::Ambient(), begin, end, body);
}

size_t ThisThreadSlot() {
  return t_slot != kOffPool ? t_slot
                            : ThreadPool::Ambient().num_threads() - 1;
}

size_t ThreadSlotCount() {
  return std::max(ThreadPool::Ambient().num_threads(), ThisThreadSlot() + 1);
}

uint64_t ParallelDispatchCount() {
  return g_dispatch_count.load(std::memory_order_relaxed);
}

void ParallelForBlocked(size_t total, size_t block_size,
                        FunctionRef<void(size_t, size_t)> body) {
  if (total == 0) return;
  DPBR_CHECK_GE(block_size, 1u);
  size_t num_blocks = (total + block_size - 1) / block_size;
  ParallelFor(0, num_blocks, [&](size_t b) {
    size_t lo = b * block_size;
    size_t hi = std::min(total, lo + block_size);
    body(lo, hi);
  });
}

}  // namespace dpbr
