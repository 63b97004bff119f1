// Tests for the cache engine's spin-then-park shard lock
// (src/common/shard_lock.h): exclusion under oversubscription, waiters that
// outlast the spin budget park and are all woken, and the standard lock
// wrappers. In the tsan preset's filter.
#include "src/common/shard_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/thread_affinity.h"

namespace coopfs {
namespace {

TEST(ShardLockTest, ExcludesUnderOversubscription) {
  // More threads than cores, so holders get descheduled mid-section and
  // waiters take every path: fast CAS, spin, and park.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIncrements = 100'000;
  ShardLock lock;
  std::uint64_t counter = 0;  // Deliberately non-atomic.
  std::atomic<int> ready{0};
  std::atomic<int> pinned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together on distinct CPUs, so the increments overlap instead
      // of running one thread after another.
      const bool spread =
          AllowedCpuCount() >= 2 && PinToAllowedCpu(static_cast<unsigned>(t));
      pinned.fetch_add(spread ? 1 : 0);
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kIncrements; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, kThreads * kIncrements);
  const ShardLockStats& stats = lock.stats();
  EXPECT_EQ(stats.acquisitions, kThreads * kIncrements);
  if (pinned.load() == kThreads) {
    EXPECT_GT(stats.contended, 0u) << "the threads never overlapped";
  }
  EXPECT_LE(stats.parked, stats.contended);
  EXPECT_LE(stats.contended, stats.acquisitions);
}

TEST(ShardLockTest, WaitersPastTheSpinBudgetParkAndAllWake) {
  constexpr int kWaiters = 3;
  ShardLock lock;
  std::atomic<int> arriving{0};
  std::atomic<int> done{0};
  lock.lock();
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      arriving.fetch_add(1);
      lock.lock();
      done.fetch_add(1);
      lock.unlock();
    });
  }
  while (arriving.load() < kWaiters) {
    std::this_thread::yield();
  }
  // Hold far past the ~5 us spin budget, so arrived waiters must park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(done.load(), 0);
  lock.unlock();
  for (std::thread& waiter : waiters) {
    waiter.join();
  }
  EXPECT_EQ(done.load(), kWaiters);
  const ShardLockStats& stats = lock.stats();
  EXPECT_EQ(stats.acquisitions, 1u + kWaiters);
  EXPECT_GE(stats.parked, 1u);
  EXPECT_LE(stats.parked, stats.contended);
}

TEST(ShardLockTest, WorksWithStandardLockWrappers) {
  ShardLock lock;
  {
    std::unique_lock<ShardLock> guard(lock);
    EXPECT_TRUE(guard.owns_lock());
    guard.unlock();
    EXPECT_FALSE(guard.owns_lock());
    guard.lock();
  }
  {
    const std::scoped_lock guard(lock);
  }
  {
    const std::lock_guard<ShardLock> guard(lock);
  }
  // Every wrapper released the lock, and each acquisition was counted once.
  EXPECT_EQ(lock.stats().acquisitions, 4u);
  EXPECT_EQ(lock.stats().contended, 0u);
  lock.lock();
  lock.unlock();
  EXPECT_EQ(lock.stats().acquisitions, 5u);
}

}  // namespace
}  // namespace coopfs
