#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace dpbr {
namespace {

// Pool sizes the scheduling tests sweep: inline, minimal fan-out, and
// every hardware thread.
std::vector<size_t> PoolSizes() {
  return {1, 2, std::max<size_t>(2, std::thread::hardware_concurrency())};
}

// Busy work whose cost grows with `units`, kept opaque to the optimizer.
double Spin(size_t units) {
  volatile double x = 1.0;
  for (size_t k = 0; k < units * 2000; ++k) x = x * 1.0000001 + 1e-9;
  return x;
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(pool, 0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SkewedCostsRunEveryIndexExactlyOnce) {
  // Every seventh index is ~100x costlier than the rest, so the threads
  // finish their first claims at very different times and the claim
  // counter, not a static split, decides who runs what.
  for (size_t size : PoolSizes()) {
    ThreadPool pool(size);
    for (size_t begin : {size_t{0}, size_t{5}}) {
      const size_t end = begin + 301;
      std::vector<std::atomic<int>> hits(end);
      std::vector<double> out(end, 0.0);
      ParallelFor(pool, begin, end, [&](size_t i) {
        out[i] = Spin(i % 7 == 0 ? 100 : 1);
        hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < end; ++i) {
        EXPECT_EQ(hits[i].load(), i >= begin ? 1 : 0)
            << "pool " << size << " index " << i;
      }
    }
  }
}

TEST(ParallelForTest, DispatchesAreReusable) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(pool, 0, 1 + round % 5, [&](size_t) { count.fetch_add(1); });
  }
  int want = 0;
  for (int round = 0; round < 200; ++round) want += 1 + round % 5;
  EXPECT_EQ(count.load(), want);
}

TEST(ParallelForTest, ConcurrentExternalCallersAreSerialized) {
  // Two threads outside the pool dispatch to it at once: both ranges
  // must complete, each index exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(500), b(500);
  std::thread other([&] {
    for (int r = 0; r < 20; ++r) {
      ParallelFor(pool, 0, b.size(), [&](size_t i) { b[i].fetch_add(1); });
    }
  });
  for (int r = 0; r < 20; ++r) {
    ParallelFor(pool, 0, a.size(), [&](size_t i) { a[i].fetch_add(1); });
  }
  other.join();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].load(), 20);
    EXPECT_EQ(b[i].load(), 20);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(pool, 5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, ComputesSameResultAsSerial) {
  // The FL trainer depends on this: per-index RNG streams make parallel
  // execution bit-identical to serial execution.
  const size_t kN = 64;
  std::vector<double> serial(kN), parallel(kN);
  for (size_t i = 0; i < kN; ++i) {
    SplitRng rng(42, {i});
    serial[i] = rng.Gaussian();
  }
  ThreadPool pool(8);
  ParallelFor(pool, 0, kN, [&](size_t i) {
    SplitRng rng(42, {i});
    parallel[i] = rng.Gaussian();
  });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, GlobalPoolWorks) {
  std::vector<int> out(100, 0);
  ParallelFor(0, out.size(), [&](size_t i) { out[i] = static_cast<int>(i); });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> order;
  ParallelFor(pool, 0, 5,
              [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, NestedDispatchRunsInline) {
  // A ParallelFor issued from inside a body runs on the calling worker,
  // in index order, and does not count as a dispatch.
  ThreadPool pool(4);
  ScopedPoolOverride route(&pool);
  const size_t kOuter = 8, kInner = 16;
  std::vector<std::vector<size_t>> order(kOuter);
  std::vector<int> same_thread(kOuter, 0);
  uint64_t before = ParallelDispatchCount();
  ParallelFor(0, kOuter, [&](size_t o) {
    std::thread::id self = std::this_thread::get_id();
    bool all_here = true;
    ParallelFor(0, kInner, [&](size_t i) {
      all_here = all_here && std::this_thread::get_id() == self;
      order[o].push_back(i);
    });
    same_thread[o] = all_here ? 1 : 0;
  });
  EXPECT_EQ(ParallelDispatchCount() - before, 1u);
  std::vector<size_t> ascending(kInner);
  std::iota(ascending.begin(), ascending.end(), size_t{0});
  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(same_thread[o], 1) << o;
    EXPECT_EQ(order[o], ascending) << o;
  }
}

TEST(ThisThreadSlotTest, OffPoolSlotIsTheLastSlot) {
  // A three-thread pool spawns workers 0 and 1; the caller's bodies run
  // on slot 2, the slot every thread outside the pool reads.
  ThreadPool pool(3);
  ScopedPoolOverride route(&pool);
  EXPECT_EQ(ThisThreadSlot(), 2u);
  EXPECT_EQ(ThreadSlotCount(), 3u);
  // A one-thread pool runs inline: the body sees the caller's slot.
  ThreadPool one(1);
  ScopedPoolOverride route_one(&one);
  size_t seen = 99;
  ParallelFor(0, 4, [&](size_t) { seen = ThisThreadSlot(); });
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(ThreadSlotCount(), 1u);
}

TEST(ThisThreadSlotTest, SlotsAreInRangeAndDistinctAcrossRunningBodies) {
  // Each body marks its slot busy for a moment: two bodies running at
  // the same time on one slot would find it already taken.
  for (size_t size : PoolSizes()) {
    ThreadPool pool(size);
    ScopedPoolOverride route(&pool);
    std::vector<std::atomic<int>> busy(size);
    std::atomic<int> out_of_range{0}, collisions{0};
    std::vector<size_t> slot_of(64, 0);
    ParallelFor(0, slot_of.size(), [&](size_t i) {
      size_t slot = ThisThreadSlot();
      slot_of[i] = slot;
      if (slot >= size) {
        out_of_range.fetch_add(1);
        return;
      }
      if (busy[slot].exchange(1) != 0) collisions.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      busy[slot].store(0);
    });
    EXPECT_EQ(out_of_range.load(), 0) << "pool " << size;
    EXPECT_EQ(collisions.load(), 0) << "pool " << size;
    for (size_t slot : slot_of) {
      // Workers run on [0, size - 1), the caller on size - 1.
      EXPECT_LT(slot, size) << "pool " << size;
    }
  }
}

// A worker held in a signal handler stands in for one the host wakes
// late: the dispatch must complete on the threads that did run, and the
// held worker, once released, must not run the finished body.
std::atomic<bool> g_hold_worker{false};
std::atomic<bool> g_worker_held{false};

void HoldWorker(int) {
  g_worker_held.store(true);
  while (g_hold_worker.load()) {
  }
  g_worker_held.store(false);
}

TEST(ParallelForTest, LateWorkerDoesNotDelayCompletion) {
  ThreadPool pool(2);  // the caller and one worker
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> found{false};
  pthread_t worker{};
  while (!found.load()) {
    ParallelFor(pool, 0, 64, [&](size_t) {
      Spin(1);
      if (std::this_thread::get_id() != caller && !found.load()) {
        worker = pthread_self();
        found.store(true);
      }
    });
  }

  // Let the worker finish its last claim loop and block: a signal that
  // caught it holding the pool's lock would stall this test's dispatch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  struct sigaction hold = {};
  struct sigaction previous = {};
  hold.sa_handler = HoldWorker;
  sigemptyset(&hold.sa_mask);
  hold.sa_flags = SA_RESTART;
  ASSERT_EQ(sigaction(SIGUSR1, &hold, &previous), 0);
  g_hold_worker.store(true);
  ASSERT_EQ(pthread_kill(worker, SIGUSR1), 0);
  while (!g_worker_held.load()) std::this_thread::yield();

  // The worker is held before this dispatch publishes its ticket: every
  // index runs on the caller, and the call returns while the worker is
  // still held.
  std::atomic<int> ran{0};
  std::atomic<int> off_caller{0};
  ParallelFor(pool, 0, 32, [&](size_t) {
    ran.fetch_add(1);
    if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_TRUE(g_worker_held.load());

  // Released, the worker finds its ticket revoked: the finished body's
  // counters never move again, and the pool still serves dispatches.
  g_hold_worker.store(false);
  while (g_worker_held.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ran.load(), 32);
  std::vector<std::atomic<int>> hits(200);
  ParallelFor(pool, 0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
}

}  // namespace
}  // namespace dpbr
