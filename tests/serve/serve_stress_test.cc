// Randomized multi-thread stress for the concurrent serving path: full
// RunServe storms across shard counts, and direct mixed-op storms against a
// sharded CacheEngine. Every storm must end with each shard's cache/directory
// invariants intact (CheckCacheDirectoryConsistency). These tests are in the
// tsan preset's filter so the synchronization claims are checked, not assumed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_affinity.h"
#include "src/core/policy_factory.h"
#include "src/engine/cache_engine.h"
#include "src/serve/serve_harness.h"
#include "src/sim/validation.h"

namespace coopfs {
namespace {

TEST(ServeStressTest, HarnessStormsStayConsistentAcrossShardCounts) {
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ServeOptions options;
    options.client_threads = 8;
    options.shards = shards;
    options.num_clients = 32;
    options.ops = 20'000;
    options.warmup_ops = 2'000;
    options.num_files = 500;
    options.zipf_s = 1.1;  // Hot keys concentrate contention on few shards.
    options.seed = 100 + shards;
    options.config.client_cache_blocks = 64;
    options.config.server_cache_blocks = 256;

    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->consistent) << report->consistency_error;
    EXPECT_EQ(report->shards, shards);
    EXPECT_EQ(report->get_ops + report->put_ops, options.ops);
  }
}

TEST(ServeStressTest, HarnessStormSurvivesRandomSeeds) {
  Rng seed_rng(20260810);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t seed = seed_rng.Next();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ServeOptions options;
    options.client_threads = 8;
    options.num_clients = 16;
    options.ops = 20'000;
    options.warmup_ops = 1'000;
    options.num_files = 300;
    options.seed = seed;
    options.policy = (round % 2 == 0) ? PolicyKind::kNChance : PolicyKind::kGreedy;
    options.config.client_cache_blocks = 32;
    options.config.server_cache_blocks = 128;

    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->consistent) << report->consistency_error;
  }
}

// Drive the sharded engine directly from many threads with a mixed op
// stream — Lookup, Admit, Evict, Forward, and the occasional Reboot — then
// check every shard's directory against its caches.
TEST(ServeStressTest, DirectEngineStormKeepsEveryShardConsistent) {
  SimulationConfig config;
  config.client_cache_blocks = 64;
  config.server_cache_blocks = 256;
  config.num_clients = 24;
  config.seed = 77;

  const PolicyParams params;
  CacheEngine engine(
      config, config.num_clients,
      [&params] { return MakePolicy(PolicyKind::kNChance, params); }, 4);
  ASSERT_TRUE(engine.synchronized());

  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 8'000;
  std::atomic<std::uint64_t> ticket{0};
  std::latch start(kThreads);  // Release the threads together, as RunServe does.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitMix64(0xfeedull + static_cast<std::uint64_t>(t)).Next());
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const BlockId block{static_cast<FileId>(rng.NextBelow(211)),
                            static_cast<BlockIndex>(rng.NextBelow(4))};
        const ClientId client =
            static_cast<ClientId>(rng.NextBelow(config.num_clients));
        const Micros now =
            static_cast<Micros>(ticket.fetch_add(1, std::memory_order_relaxed) * 10);
        switch (rng.NextBelow(10)) {
          case 0:
            engine.Admit(client, block, now);
            break;
          case 1:
            engine.Evict(client, block.file);
            break;
          case 2:
            engine.Forward(client, block);
            break;
          case 3:
            if (rng.NextBelow(100) == 0) {
              engine.Reboot(client);
              break;
            }
            [[fallthrough]];
          default:
            engine.Lookup(client, block, now);
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    const Status status = CheckCacheDirectoryConsistency(engine.context(shard));
    EXPECT_TRUE(status.ok()) << "shard " << shard << ": " << status.ToString();
  }
}

// Every engine call takes its shard's lock exactly once per shard it
// visits: one for the per-file operations, one per shard for Reboot, Tick
// and SetAccounting. The summed lock counters must account for each.
TEST(ServeStressTest, LockAcquisitionsCountEveryEngineCall) {
  SimulationConfig config;
  config.client_cache_blocks = 64;
  config.server_cache_blocks = 256;
  config.num_clients = 16;
  config.seed = 91;

  const PolicyParams params;
  CacheEngine engine(
      config, config.num_clients,
      [&params] { return MakePolicy(PolicyKind::kNChance, params); }, 4);
  const std::uint64_t shards = engine.num_shards();
  engine.SetAccounting(true);

  constexpr int kThreads = 6;
  constexpr std::uint64_t kOpsPerThread = 5'000;
  std::vector<std::uint64_t> expected(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(SplitMix64(0x10c4ull + static_cast<std::uint64_t>(t)).Next());
      std::uint64_t& taken = expected[t];
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const BlockId block{static_cast<FileId>(rng.NextBelow(97)),
                            static_cast<BlockIndex>(rng.NextBelow(4))};
        const ClientId client = static_cast<ClientId>(rng.NextBelow(config.num_clients));
        switch (rng.NextBelow(200)) {
          case 0:
            engine.Reboot(client);
            taken += shards;
            break;
          case 1:
            engine.Tick();
            taken += shards;
            break;
          case 2:
            engine.Evict(client, block.file);
            ++taken;
            break;
          case 3:
            engine.ReadAttr(client, block.file);
            ++taken;
            break;
          case 4:
            engine.Forward(client, block);
            ++taken;
            break;
          default:
            if (rng.NextBool(0.5)) {
              engine.Admit(client, block, static_cast<Micros>(i));
            } else {
              engine.Lookup(client, block);
            }
            ++taken;
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  std::uint64_t calls = shards;  // SetAccounting above.
  for (const std::uint64_t taken : expected) {
    calls += taken;
  }
  std::uint64_t acquisitions = 0;
  for (std::uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    const ShardLockStats& stats = engine.lock_stats(shard);
    EXPECT_LE(stats.parked, stats.contended) << "shard " << shard;
    EXPECT_LE(stats.contended, stats.acquisitions) << "shard " << shard;
    acquisitions += stats.acquisitions;
  }
  EXPECT_EQ(acquisitions, calls);
}

// RunServe pins each client thread to its own allowed CPU and releases
// them together, so a storm of hot keys on one shard must contend for its
// lock. Unpinned threads started together can share one CPU for a whole
// short storm and never contend.
TEST(ServeStressTest, StormsContendWhenTwoCpusAllowed) {
  if (AllowedCpuCount() < 2) {
    GTEST_SKIP() << "fewer than 2 CPUs allowed";
  }
  std::uint64_t contended = 0;
  int storms = 0;
  while (storms < 5 && contended == 0) {
    ServeOptions options;
    options.client_threads = 4;
    options.shards = 1;
    options.num_clients = 16;
    options.ops = 20'000;
    options.warmup_ops = 0;
    options.num_files = 200;
    options.seed = 500 + static_cast<std::uint64_t>(storms++);
    options.config.client_cache_blocks = 64;
    options.config.server_cache_blocks = 256;

    Result<ServeReport> report = RunServe(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (const ShardLockStats& lock : report->shard_locks) {
      contended += lock.contended;
    }
  }
  EXPECT_GT(contended, 0u) << "no contended acquisition in " << storms << " storms";
}

}  // namespace
}  // namespace coopfs
