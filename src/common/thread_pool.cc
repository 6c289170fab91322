#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace dpbr {
namespace {

constexpr size_t kOffPool = static_cast<size_t>(-1);

// Worker index of the current thread within its pool, or kOffPool. A
// pool worker only ever runs dispatch bodies, so a set slot also means
// "inside a body": nested ParallelFor calls then run inline instead of
// deadlocking the pool.
thread_local size_t t_slot = kOffPool;

// ScopedPoolOverride target; read by ThreadPool::Ambient().
ThreadPool* g_pool_override = nullptr;

// Fanned-out ParallelFor invocations; see ParallelDispatchCount().
std::atomic<uint64_t> g_dispatch_count{0};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  DPBR_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Dispatch(size_t begin, size_t end, size_t workers,
                          FunctionRef<void(size_t)> body) {
  std::lock_guard<std::mutex> serial(dispatch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = body;
    end_ = end;
    next_.store(begin, std::memory_order_relaxed);
    tickets_ = workers;
    outstanding_ = workers;
  }
  // Workers woken beyond `workers` find no ticket and sleep again.
  cv_work_.notify_all();
  // The last worker notifies while holding mu_, so this frame (and the
  // callable `body` borrows) outlives every worker's use of it.
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
  body_ = nullptr;
}

void ThreadPool::WorkerLoop(size_t slot) {
  t_slot = slot;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_work_.wait(lock, [this] { return stop_ || tickets_ > 0; });
    if (tickets_ == 0) return;  // stopping, no dispatch in flight
    --tickets_;
    FunctionRef<void(size_t)> body = body_;
    size_t end = end_;
    lock.unlock();
    for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < end;
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
    lock.lock();
    if (--outstanding_ == 0) cv_done_.notify_one();
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
  pool.Dispatch(begin, end, std::min(n, pool.num_threads()), body);
}

void ParallelFor(size_t begin, size_t end, FunctionRef<void(size_t)> body) {
  ParallelFor(ThreadPool::Ambient(), begin, end, body);
}

size_t ThisThreadSlot() {
  return t_slot != kOffPool ? t_slot : ThreadPool::Ambient().num_threads();
}

size_t ThreadSlotCount() {
  return std::max(ThreadPool::Ambient().num_threads(), ThisThreadSlot()) + 1;
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
