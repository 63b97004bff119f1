#include "src/core/nchance.h"

#include <gtest/gtest.h>

#include "src/core/greedy.h"
#include "src/sim/simulator.h"
#include "src/sim/validation.h"
#include "src/trace/workload.h"
#include "tests/testing/scripted.h"

namespace coopfs {
namespace {

std::uint64_t Level(const SimulationResult& result, CacheLevel level) {
  return result.level_counts.Get(static_cast<std::size_t>(level));
}

TEST(NChanceTest, NameReflectsParameter) {
  EXPECT_EQ(NChancePolicy(2).Name(), "N-Chance (n=2)");
  EXPECT_EQ(NChancePolicy(0).Name(), "N-Chance (n=0)");
}

TEST(NChanceTest, EvictedSingletRecirculatesToPeer) {
  // Two clients. Client 0 (capacity 1) reads f1 then f2; the evicted f1 is
  // the last cached copy, so it must be forwarded to client 1 with the full
  // recirculation count.
  TraceBuilder builder;
  builder.Read(1, 9, 0)  // Client 1 exists and caches something.
      .Read(0, 1, 0)
      .Read(0, 2, 0);
  Simulator simulator(TinyConfig(1, 8, /*num_clients=*/2), &builder.Build());
  NChancePolicy policy(2);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    const CacheEntry* entry = context.client_cache(1).Find(BlockId{1, 0});
    ASSERT_NE(entry, nullptr) << "singlet should have recirculated to the peer";
    EXPECT_EQ(entry->recirculation_count(), 2);
    EXPECT_TRUE(entry->singlet_flag());
    EXPECT_EQ(context.directory().HolderCount(BlockId{1, 0}), 1u);
    EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
  });
  ASSERT_TRUE(result.ok());
}

TEST(NChanceTest, DuplicatedBlockIsDroppedNotForwarded) {
  // Both clients cache f1. Client 0's eviction of f1 finds a duplicate:
  // dropped, not recirculated (client 1 keeps the only remaining copy).
  TraceBuilder builder;
  builder.Read(1, 1, 0)   // Client 1 caches f1 (from disk).
      .Read(0, 1, 0)      // Client 0 caches f1 too (from server memory).
      .Read(0, 2, 0);     // Client 0 (capacity 1) evicts f1: duplicated.
  Simulator simulator(TinyConfig(1, 8, 2), &builder.Build());
  NChancePolicy policy(2);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    EXPECT_EQ(context.directory().HolderCount(BlockId{1, 0}), 1u);
    const CacheEntry* entry = context.client_cache(1).Find(BlockId{1, 0});
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->recirculating()) << "client 1's own copy must not recirculate";
  });
  ASSERT_TRUE(result.ok());
}

TEST(NChanceTest, FetchingRecirculatingSingletMovesIt) {
  // f1 recirculates to client 1; the server cache (capacity 1) has since
  // moved on, so client 0's re-read is forwarded to client 1 — which must
  // discard its cooperative copy while client 0 caches it normally.
  TraceBuilder builder;
  builder.Read(1, 9, 0)
      .Read(0, 1, 0)
      .Read(0, 2, 0)   // f1 recirculates to client 1. Server cache: {f2}.
      .Read(0, 1, 0);  // Remote hit at client 1.
  Simulator simulator(TinyConfig(1, 1, 2), &builder.Build());
  NChancePolicy policy(2);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    EXPECT_FALSE(context.client_cache(1).Contains(BlockId{1, 0}))
        << "holder must discard a fetched recirculating singlet";
    const CacheEntry* entry = context.client_cache(0).Find(BlockId{1, 0});
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->recirculating()) << "requester caches it as normal data";
    EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kRemoteClient), 1u);
}

TEST(NChanceTest, LocalReferenceResetsRecirculation) {
  // Client 1 references the singlet recirculating in its own cache: the
  // copy becomes normal local data (count reset), no forwarding.
  TraceBuilder builder;
  builder.Read(1, 9, 0)
      .Read(0, 1, 0)
      .Read(0, 2, 0)   // f1 recirculates to client 1 (displacing f9).
      .Read(1, 1, 0);  // Client 1's local hit on the recirculating copy.
  Simulator simulator(TinyConfig(1, 8, 2), &builder.Build());
  NChancePolicy policy(2);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    const CacheEntry* entry = context.client_cache(1).Find(BlockId{1, 0});
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->recirculation_count(), 0);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kLocalMemory), 1u);
}

TEST(NChanceTest, ServerHitDemotesRecirculatingCopy) {
  // f1 recirculates to an idle client but is still in the big server cache;
  // client 0 re-reads it from server memory. The block is now duplicated,
  // so the holder's recirculating copy must be demoted to normal data.
  //
  // Client 2 pre-caches f2 so that client 0's final insertion evicts a
  // *duplicate* (dropped quietly) rather than recirculating anything into
  // the cache under inspection. The random forward target is client 1 or 2;
  // assert whenever it landed on the empty client 1.
  TraceBuilder builder;
  builder.Read(2, 2, 0)   // c2 caches f2; server caches f2.
      .Read(0, 1, 0)      // c0 caches f1; server caches f1.
      .Read(0, 2, 0)      // c0 evicts singlet f1 -> recirculates to 1 or 2.
      .Read(0, 1, 0);     // Server-memory hit on f1: duplicated again.
  SimulationConfig config = TinyConfig(1, 8, 3);
  bool verified = false;
  for (std::uint64_t seed = 0; seed < 16 && !verified; ++seed) {
    config.seed = seed;
    Simulator simulator(config, &builder.Build());
    NChancePolicy policy(2);
    const auto result = simulator.Run(policy, [&](SimContext& context) {
      const CacheEntry* entry = context.client_cache(1).Find(BlockId{1, 0});
      if (entry == nullptr) {
        return;  // This seed forwarded f1 to client 2 instead.
      }
      verified = true;
      EXPECT_FALSE(entry->recirculating());
      EXPECT_FALSE(entry->singlet_flag());
      const Status status = CheckCacheDirectoryConsistency(context);
      EXPECT_TRUE(status.ok()) << status.ToString();
    });
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Level(*result, CacheLevel::kServerMemory), 2u);  // f2 and f1.
  }
  EXPECT_TRUE(verified);
}

TEST(NChanceTest, RipplePreventionDropsInsteadOfForwarding) {
  // Three clients, capacity 1 each. Client 2's cache holds its own singlet
  // f9. When f1 recirculates into client 2, the displaced f9 must be
  // dropped (receiving clients may not forward), not recirculated to
  // client 0 or 1.
  TraceBuilder builder;
  builder.Read(2, 9, 0).Read(0, 1, 0).Read(0, 2, 0);
  // Force determinism of the peer choice: with 3 clients the random peer of
  // client 0 is 1 or 2; run many seeds and only assert the invariant.
  SimulationConfig config = TinyConfig(1, 8, 3);
  bool saw_forward_to_2 = false;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    config.seed = seed;
    Simulator simulator(config, &builder.Build());
    NChancePolicy policy(2);
    const auto result = simulator.Run(policy, [&](SimContext& context) {
      if (context.client_cache(2).Contains(BlockId{1, 0})) {
        saw_forward_to_2 = true;
        // f9 was displaced from client 2: it must be gone everywhere
        // (a ripple would have pushed it into client 0 or 1).
        EXPECT_FALSE(context.client_cache(0).Contains(BlockId{9, 0}));
        EXPECT_FALSE(context.client_cache(1).Contains(BlockId{9, 0}));
        EXPECT_EQ(context.directory().HolderCount(BlockId{9, 0}), 0u);
      }
      EXPECT_TRUE(CheckCacheDirectoryConsistency(context).ok());
    });
    ASSERT_TRUE(result.ok());
  }
  EXPECT_TRUE(saw_forward_to_2) << "expected at least one seed to forward to client 2";
}

TEST(NChanceTest, ModifiedReplacementPrefersDuplicates) {
  // Client 2 (capacity 2) holds f9 (its own singlet, the LRU entry) and f8
  // (duplicated at client 1, the MRU entry). A recirculated block arriving
  // at client 2 must displace the *duplicated* f8 — plain LRU would have
  // discarded the singlet f9 (paper §2.4 modified replacement).
  TraceBuilder builder;
  builder.Read(1, 8, 0)   // Client 1 caches f8.
      .Read(2, 9, 0)      // Client 2 caches f9 (singlet).
      .Read(2, 8, 0)      // Client 2 caches f8 (duplicate), f8 is MRU.
      .Read(0, 1, 0)
      .Read(0, 2, 0)
      .Read(0, 3, 0);     // Client 0 (cap 2) evicts singlet f1 -> recirculates.
  SimulationConfig config = TinyConfig(2, 8, 3);
  // Client 1 capacity is shared; keep it simple: find a seed that forwards
  // f1 to client 2 and check the duplicate was chosen.
  bool verified = false;
  for (std::uint64_t seed = 0; seed < 16 && !verified; ++seed) {
    config.seed = seed;
    Simulator simulator(config, &builder.Build());
    NChancePolicy policy(2);
    const auto result = simulator.Run(policy, [&](SimContext& context) {
      if (!context.client_cache(2).Contains(BlockId{1, 0})) {
        return;  // Forwarded to client 1 under this seed.
      }
      verified = true;
      EXPECT_FALSE(context.client_cache(2).Contains(BlockId{8, 0}))
          << "the duplicated block must be the victim";
      EXPECT_TRUE(context.client_cache(2).Contains(BlockId{9, 0}))
          << "the singlet must survive";
    });
    ASSERT_TRUE(result.ok());
  }
  EXPECT_TRUE(verified);
}

TEST(NChanceTest, ModifiedReplacementEvictsOlderOfEqualCounts) {
  // Two clients, so every forward goes to the other one. Client 1 holds its
  // own singlet f9 (LRU) and, newer, f1 and f2, both recirculating with the
  // same count. When f3 arrives, f9 is queried and flagged (no duplicate to
  // evict), and the victim is the *older* of the two equal-count copies.
  // Plain LRU would have discarded f9.
  TraceBuilder builder;
  builder.Read(1, 9, 0)
      .Read(0, 1, 0).Read(0, 2, 0).Read(0, 3, 0)  // Client 0 (capacity 3) full.
      .Read(0, 4, 0)                              // f1 -> client 1 (count 2).
      .Read(0, 5, 0)                              // f2 -> client 1 (count 2): full.
      .Read(0, 6, 0);                             // f3 -> client 1: make space.
  Simulator simulator(TinyConfig(3, 64, 2), &builder.Build());
  NChancePolicy policy(2);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    const BlockCache& peer = context.client_cache(1);
    EXPECT_FALSE(peer.Contains(BlockId{1, 0})) << "the older equal-count copy is the victim";
    EXPECT_EQ(context.directory().HolderCount(BlockId{1, 0}), 0u) << "dropped, not forwarded";
    ASSERT_NE(peer.Find(BlockId{2, 0}), nullptr);
    EXPECT_EQ(peer.Find(BlockId{2, 0})->recirculation_count(), 2);
    ASSERT_NE(peer.Find(BlockId{3, 0}), nullptr);
    const CacheEntry* own = peer.Find(BlockId{9, 0});
    ASSERT_NE(own, nullptr) << "a queried singlet outranks recirculating copies";
    EXPECT_TRUE(own->singlet_flag());
    const Status status = CheckCacheDirectoryConsistency(context);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  ASSERT_TRUE(result.ok());
}

TEST(NChanceTest, UnflaggedSingletIsQueriedAgainAtItsLruPosition) {
  // Two clients, capacity 4. Client 1 ends up holding, oldest first: f7 (its
  // own singlet), f1 (a flag-marked singlet it referenced after receiving
  // it), f8 (duplicated at client 0) and f2 (recirculating). Client 0 then
  // reads f1 from server memory: client 1's flag is reset, so f1 is an
  // ordinary block again, older than f8. The forward that follows must
  // query f1 again at that LRU position and evict it as the oldest
  // duplicate; re-queuing it as the newest unmarked block (or never
  // re-querying it) would evict f8 instead.
  TraceBuilder builder;
  builder.Read(0, 1, 0)
      .Read(1, 7, 0)
      .Read(0, 2, 0).Read(0, 3, 0).Read(0, 4, 0)  // Client 0 full.
      .Read(0, 5, 0)   // f1 -> client 1 (recirculating, flagged).
      .Read(1, 1, 0)   // Local hit: f1 becomes a flag-marked local singlet.
      .Read(1, 8, 0)
      .Read(0, 8, 0)   // Server hit; client 0 forwards f2 -> client 1: full.
      .Read(0, 1, 0);  // Server hit unflags f1; f3 forwarded -> make space.
  Simulator simulator(TinyConfig(4, 64, 2), &builder.Build());
  NChancePolicy policy(2);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    const BlockCache& peer = context.client_cache(1);
    EXPECT_FALSE(peer.Contains(BlockId{1, 0})) << "the re-queried duplicate f1 is the victim";
    EXPECT_TRUE(context.client_cache(0).Contains(BlockId{1, 0}));
    EXPECT_TRUE(peer.Contains(BlockId{8, 0})) << "the newer duplicate survives";
    EXPECT_TRUE(peer.Contains(BlockId{2, 0}));
    EXPECT_TRUE(peer.Contains(BlockId{3, 0}));
    const CacheEntry* own = peer.Find(BlockId{7, 0});
    ASSERT_NE(own, nullptr);
    EXPECT_TRUE(own->singlet_flag()) << "f7 was queried first, as the oldest unmarked block";
    const Status status = CheckCacheDirectoryConsistency(context);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Level(*result, CacheLevel::kServerMemory), 2u);  // f8 and f1.
}

TEST(NChanceTest, ZeroChanceEqualsGreedyOnScriptedTrace) {
  TraceBuilder builder;
  builder.Read(1, 9, 0).Read(0, 1, 0).Read(0, 2, 0).Read(0, 1, 0).Read(1, 2, 0);
  Simulator simulator(TinyConfig(1, 1, 2), &builder.Build());
  GreedyPolicy greedy;
  NChancePolicy zero(0);
  const auto greedy_result = simulator.Run(greedy);
  const auto zero_result = simulator.Run(zero);
  ASSERT_TRUE(greedy_result.ok());
  ASSERT_TRUE(zero_result.ok());
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    EXPECT_EQ(greedy_result->level_counts.Get(level), zero_result->level_counts.Get(level));
  }
  EXPECT_EQ(greedy_result->server_load.TotalUnits(), zero_result->server_load.TotalUnits());
}

class NChanceGreedyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Property (paper §2.4): "Greedy forwarding is simply the degenerate case of
// this algorithm with n = 0" — identical hit counts and server load on any
// workload.
TEST_P(NChanceGreedyEquivalence, ZeroChanceEqualsGreedy) {
  WorkloadConfig workload = SmallTestWorkloadConfig(GetParam());
  workload.num_events = 5000;
  const Trace trace = GenerateWorkload(workload);
  Simulator simulator(TinyConfig(24, 48), &trace);
  GreedyPolicy greedy;
  NChancePolicy zero(0);
  const auto greedy_result = simulator.Run(greedy);
  const auto zero_result = simulator.Run(zero);
  ASSERT_TRUE(greedy_result.ok());
  ASSERT_TRUE(zero_result.ok());
  for (std::size_t level = 0; level < kNumCacheLevels; ++level) {
    EXPECT_EQ(greedy_result->level_counts.Get(level), zero_result->level_counts.Get(level))
        << "level " << level;
  }
  EXPECT_EQ(greedy_result->server_load.TotalUnits(), zero_result->server_load.TotalUnits());
  EXPECT_NEAR(greedy_result->AverageReadTime(), zero_result->AverageReadTime(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NChanceGreedyEquivalence,
                         ::testing::Values(2ull, 13ull, 77ull, 1001ull));

class NChanceInvariantProperty : public ::testing::TestWithParam<int> {};

// Property: after any workload, every recirculating or flag-marked copy
// really is the only client copy (checked inside the validator), and the
// directory matches the caches exactly.
TEST_P(NChanceInvariantProperty, MetadataStaysCoherent) {
  const int n = GetParam();
  WorkloadConfig workload = SmallTestWorkloadConfig(91);
  workload.num_events = 8000;
  const Trace trace = GenerateWorkload(workload);
  Simulator simulator(TinyConfig(16, 16), &trace);
  NChancePolicy policy(n);
  const auto result = simulator.Run(policy, [](SimContext& context) {
    const Status status = CheckCacheDirectoryConsistency(context);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  ASSERT_TRUE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(RecirculationCounts, NChanceInvariantProperty,
                         ::testing::Values(0, 1, 2, 3, 5, 10));

}  // namespace
}  // namespace coopfs
