// Spin-then-park mutual exclusion for the cache engine's shards.
//
// A shard's critical section (one policy operation) takes ~1.5-3 us, far
// less than a futex sleep plus wake, so parking every contended waiter at
// once (what std::mutex does) puts a syscall round trip on each handoff and
// sets the serve tail. ShardLock first spins briefly, test-and-test-and-set
// with a CPU pause, and parks on the lock word (std::atomic::wait) only once
// the spin budget is spent. The word has Drepper's three states ("Futexes
// Are Tricky"): free, locked, and locked with possibly-parked waiters, so an
// unlock calls notify_one only when somebody may be asleep.
//
// BasicLockable, so std::unique_lock / std::scoped_lock work unchanged. The
// owner counts its acquisitions in plain fields the lock itself protects;
// read them only while no thread can take the lock.
#ifndef COOPFS_SRC_COMMON_SHARD_LOCK_H_
#define COOPFS_SRC_COMMON_SHARD_LOCK_H_

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace coopfs {

struct ShardLockStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended = 0;  // The first compare-and-swap failed.
  std::uint64_t parked = 0;     // The waiter slept at least once.
};

class ShardLock {
 public:
  // Spin iterations before parking: ~5 us, about two median critical
  // sections. One pause measures 20-24 ns on a 4-core Xeon host, so 200
  // pauses cover the budget; waiting longer than that means the holder was
  // descheduled, and sleeping beats burning its core.
  static constexpr int kSpinPauses = 200;

  void lock() {
    std::uint32_t expected = kFree;
    if (!word_.compare_exchange_strong(expected, kLocked, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      LockContended();
    }
    ++stats_.acquisitions;
  }

  void unlock() {
    if (word_.exchange(kFree, std::memory_order_release) == kLockedParked) {
      word_.notify_one();
    }
  }

  const ShardLockStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kLocked = 1;
  static constexpr std::uint32_t kLockedParked = 2;

  void LockContended() {
    for (int spin = 0; spin < kSpinPauses; ++spin) {
      std::uint32_t expected = kFree;
      if (word_.load(std::memory_order_relaxed) == kFree &&
          word_.compare_exchange_weak(expected, kLocked, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        ++stats_.contended;
        return;
      }
      Pause();
    }
    // Park. The word says kLockedParked before this waiter sleeps, and still
    // does once it takes the lock (others may be asleep), so the unlock
    // that follows wakes the next sleeper.
    bool slept = false;
    while (word_.exchange(kLockedParked, std::memory_order_acquire) != kFree) {
      word_.wait(kLockedParked, std::memory_order_relaxed);
      slept = true;
    }
    ++stats_.contended;
    stats_.parked += slept ? 1 : 0;
  }

  static void Pause() {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<std::uint32_t> word_{kFree};
  ShardLockStats stats_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_SHARD_LOCK_H_
