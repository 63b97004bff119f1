#include "src/common/flat_hash_map.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

namespace coopfs {
namespace {

TEST(FlatHashMapTest, StartsEmpty) {
  FlatHashMap<std::uint64_t, int> map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Contains(1));
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_FALSE(map.Erase(1));
}

TEST(FlatHashMapTest, InsertFindErase) {
  FlatHashMap<std::uint64_t, int> map;
  auto [value, inserted] = map.TryEmplace(7);
  EXPECT_TRUE(inserted);
  *value = 42;
  EXPECT_TRUE(map.Contains(7));
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 42);
  auto [again, inserted_again] = map.TryEmplace(7);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 42);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Contains(7));
  EXPECT_EQ(map.size(), 0u);
}

TEST(FlatHashMapTest, OperatorBracketDefaultConstructs) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  EXPECT_EQ(map[5], 0u);
  map[5] = 9;
  EXPECT_EQ(map[5], 9u);
  ++map[6];
  EXPECT_EQ(map[6], 1u);
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatHashMapTest, ReservePreventsRehash) {
  FlatHashMap<std::uint64_t, int> map;
  map.Reserve(1000);
  const std::size_t buckets = map.bucket_count();
  EXPECT_GE(buckets * 7 / 8, 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    map.TryEmplace(k);
  }
  EXPECT_EQ(map.bucket_count(), buckets);
  EXPECT_EQ(map.Stats().rehashes, 1u);  // The reserve itself.
}

TEST(FlatHashMapTest, GrowthAcrossBoundaries) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  // Push through several growth boundaries and verify contents each time.
  for (std::uint64_t k = 0; k < 5000; ++k) {
    map[k] = k * 3;
    if ((k & (k - 1)) == 0) {  // Powers of two: spot-check everything so far.
      for (std::uint64_t j = 0; j <= k; ++j) {
        ASSERT_NE(map.Find(j), nullptr) << j << " lost at size " << k;
        ASSERT_EQ(*map.Find(j), j * 3);
      }
    }
  }
  EXPECT_EQ(map.size(), 5000u);
  EXPECT_LE(map.load_factor(), 7.0 / 8.0 + 1e-9);
}

TEST(FlatHashMapTest, ClearRemovesEverything) {
  FlatHashMap<std::uint64_t, int> map;
  for (std::uint64_t k = 0; k < 100; ++k) {
    map.TryEmplace(k);
  }
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_FALSE(map.Contains(k));
  }
  map.TryEmplace(3);  // Still usable.
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, ForEachVisitsAllOnce) {
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  for (std::uint64_t k = 0; k < 500; ++k) {
    map[k] = k;
  }
  std::vector<bool> seen(500, false);
  map.ForEach([&seen](std::uint64_t key, const std::uint64_t& value) {
    ASSERT_LT(key, 500u);
    ASSERT_EQ(key, value);
    ASSERT_FALSE(seen[key]) << "visited twice";
    seen[key] = true;
  });
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(FlatHashMapTest, NonIntegralKeys) {
  FlatHashMap<std::string, int> map;
  map["alpha"] = 1;
  map["beta"] = 2;
  EXPECT_EQ(*map.Find("alpha"), 1);
  EXPECT_TRUE(map.Erase("alpha"));
  EXPECT_FALSE(map.Contains("alpha"));
  EXPECT_EQ(*map.Find("beta"), 2);
}

TEST(FlatHashMapTest, StatsTrackOccupancy) {
  FlatHashMap<std::uint64_t, int> map;
  EXPECT_EQ(map.Stats().size, 0u);
  for (std::uint64_t k = 0; k < 64; ++k) {
    map.TryEmplace(k);
  }
  const FlatMapStats stats = map.Stats();
  EXPECT_EQ(stats.size, 64u);
  EXPECT_GT(stats.buckets, 0u);
  EXPECT_GT(stats.load_factor, 0.0);
  EXPECT_GE(stats.max_probe_length, static_cast<std::size_t>(stats.avg_probe_length));
}

TEST(FlatHashSetTest, InsertContainsErase) {
  FlatHashSet<std::uint64_t> set;
  EXPECT_TRUE(set.Insert(3));
  EXPECT_FALSE(set.Insert(3));
  EXPECT_TRUE(set.Contains(3));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Erase(3));
  EXPECT_FALSE(set.Erase(3));
  EXPECT_TRUE(set.empty());
}

// Keys that all land in the same home bucket exercise long probe chains and
// the backward-shift erase path deterministically: after erasing the middle
// of a cluster, the rest must still be findable.
TEST(FlatHashMapTest, CollidingKeysSurviveMidClusterErase) {
  struct HomeBucketHash {
    std::uint64_t operator()(const std::uint64_t&) const { return 0; }  // All collide.
  };
  FlatHashMap<std::uint64_t, std::uint64_t, HomeBucketHash> map;
  for (std::uint64_t k = 0; k < 6; ++k) {
    map[k] = k + 100;
  }
  EXPECT_TRUE(map.Erase(2));
  EXPECT_TRUE(map.Erase(4));
  for (std::uint64_t k : {0ull, 1ull, 3ull, 5ull}) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), k + 100);
  }
  EXPECT_EQ(map.size(), 4u);
  map[2] = 202;  // Reinsert into the shifted cluster.
  EXPECT_EQ(*map.Find(2), 202u);
}

// EraseIf with all-colliding keys hits the shifted-into-current-slot case:
// erasing slot i pulls the next cluster element into i, which must be
// re-examined, not skipped.
TEST(FlatHashMapTest, EraseIfReexaminesShiftedSlots) {
  struct HomeBucketHash {
    std::uint64_t operator()(const std::uint64_t&) const { return 0; }
  };
  FlatHashMap<std::uint64_t, std::uint64_t, HomeBucketHash> map;
  for (std::uint64_t k = 0; k < 8; ++k) {
    map[k] = k;
  }
  const std::size_t removed =
      map.EraseIf([](const std::uint64_t& key, std::uint64_t&) { return key % 2 == 0; });
  EXPECT_EQ(removed, 4u);
  EXPECT_EQ(map.size(), 4u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(map.Contains(k), k % 2 == 1) << k;
  }
}

// ---- Randomized differential tests against the std reference ----

// Deterministic PRNG (xorshift64*) so failures reproduce.
class TestRng {
 public:
  explicit TestRng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

class FlatHashMapDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatHashMapDifferential, MatchesUnorderedMap) {
  TestRng rng(GetParam());
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  // Small key space forces frequent hits, erases of present keys, and
  // reinsertion into shifted clusters; ops count crosses growth boundaries.
  const std::uint64_t key_space = 1 + rng.Below(400);
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t key = rng.Below(key_space);
    switch (rng.Below(5)) {
      case 0: {  // Insert or overwrite.
        const std::uint64_t value = rng.Next();
        map[key] = value;
        reference[key] = value;
        break;
      }
      case 1: {  // TryEmplace (no overwrite).
        auto [value, inserted] = map.TryEmplace(key);
        auto [it, ref_inserted] = reference.try_emplace(key, 0);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*value, it->second);
        break;
      }
      case 2: {  // Erase.
        ASSERT_EQ(map.Erase(key), reference.erase(key) == 1);
        break;
      }
      case 3: {  // Lookup.
        const auto it = reference.find(key);
        std::uint64_t* found = map.Find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        ASSERT_EQ(map.Contains(key), it != reference.end());
        break;
      }
      case 4: {  // Extract: erase and hand back the value.
        const auto it = reference.find(key);
        const std::optional<std::uint64_t> taken = map.Extract(key);
        ASSERT_EQ(taken.has_value(), it != reference.end());
        if (taken.has_value()) {
          ASSERT_EQ(*taken, it->second);
          reference.erase(it);
        }
        ASSERT_FALSE(map.Contains(key));
        break;
      }
    }
    ASSERT_EQ(map.size(), reference.size());
  }
  // Full-content comparison via iteration both ways.
  std::size_t visited = 0;
  map.ForEach([&](std::uint64_t key, const std::uint64_t& value) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key;
    ASSERT_EQ(value, it->second);
    ++visited;
  });
  ASSERT_EQ(visited, reference.size());
}

TEST_P(FlatHashMapDifferential, EraseIfMatchesReference) {
  TestRng rng(GetParam() * 977 + 5);
  FlatHashMap<std::uint64_t, std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.Below(2000);
      const std::uint64_t value = rng.Next();
      map[key] = value;
      reference[key] = value;
    }
    const std::uint64_t modulus = 2 + rng.Below(5);
    const std::uint64_t keep = rng.Below(modulus);
    const std::size_t removed = map.EraseIf(
        [&](const std::uint64_t& key, std::uint64_t&) { return key % modulus != keep; });
    std::size_t ref_removed = 0;
    for (auto it = reference.begin(); it != reference.end();) {
      if (it->first % modulus != keep) {
        it = reference.erase(it);
        ++ref_removed;
      } else {
        ++it;
      }
    }
    ASSERT_EQ(removed, ref_removed);
    ASSERT_EQ(map.size(), reference.size());
    for (const auto& [key, value] : reference) {
      ASSERT_NE(map.Find(key), nullptr) << key;
      ASSERT_EQ(*map.Find(key), value);
    }
  }
}

TEST_P(FlatHashMapDifferential, SetMatchesUnorderedSet) {
  TestRng rng(GetParam() * 31 + 7);
  FlatHashSet<std::uint64_t> set;
  std::unordered_set<std::uint64_t> reference;
  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t key = rng.Below(300);
    switch (rng.Below(3)) {
      case 0:
        ASSERT_EQ(set.Insert(key), reference.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(set.Erase(key), reference.erase(key) == 1);
        break;
      case 2:
        ASSERT_EQ(set.Contains(key), reference.count(key) == 1);
        break;
    }
    ASSERT_EQ(set.size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatHashMapDifferential,
                         ::testing::Values(1u, 42u, 1234u, 87'654'321u));

}  // namespace
}  // namespace coopfs
