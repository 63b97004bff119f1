#include "src/cache/block_cache.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace coopfs {
namespace {

BlockId B(std::uint32_t file, std::uint32_t block = 0) { return BlockId{file, block}; }

TEST(BlockCacheTest, StartsEmpty) {
  BlockCache cache(4);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_FALSE(cache.Full());
  EXPECT_FALSE(cache.Contains(B(1)));
  EXPECT_EQ(cache.Find(B(1)), nullptr);
  EXPECT_EQ(cache.Lru(), nullptr);
  EXPECT_EQ(cache.Mru(), nullptr);
}

TEST(BlockCacheTest, InsertAndFind) {
  BlockCache cache(4);
  CacheEntry& entry = cache.Insert(B(1, 2));
  EXPECT_EQ(entry.block, B(1, 2));
  EXPECT_TRUE(cache.Contains(B(1, 2)));
  EXPECT_EQ(cache.Find(B(1, 2)), &entry);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, LruOrderFollowsInsertion) {
  BlockCache cache(3);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  EXPECT_EQ(cache.Lru()->block, B(1));
  EXPECT_EQ(cache.Mru()->block, B(3));
}

TEST(BlockCacheTest, TouchRenews) {
  BlockCache cache(3);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  EXPECT_NE(cache.Touch(B(1)), nullptr);
  EXPECT_EQ(cache.Mru()->block, B(1));
  EXPECT_EQ(cache.Lru()->block, B(2));
  EXPECT_EQ(cache.Touch(B(99)), nullptr);
}

TEST(BlockCacheTest, FindDoesNotRenew) {
  BlockCache cache(3);
  cache.Insert(B(1));
  cache.Insert(B(2));
  EXPECT_NE(cache.Find(B(1)), nullptr);
  EXPECT_EQ(cache.Lru()->block, B(1));
}

TEST(BlockCacheTest, EvictLruReturnsVictim) {
  BlockCache cache(2);
  cache.SetMarks(cache.Insert(B(1)), 2, false);
  cache.Insert(B(2));
  const std::optional<CacheEntry> victim = cache.EvictLru();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->block, B(1));
  EXPECT_EQ(victim->recirculation_count(), 2);  // Metadata survives the copy.
  EXPECT_FALSE(cache.Contains(B(1)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, EvictLruOnEmptyIsNullopt) {
  BlockCache cache(2);
  EXPECT_FALSE(cache.EvictLru().has_value());
}

TEST(BlockCacheTest, EraseRemoves) {
  BlockCache cache(2);
  cache.Insert(B(1));
  EXPECT_TRUE(cache.Erase(B(1)));
  EXPECT_FALSE(cache.Erase(B(1)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCacheTest, ZeroCapacityRejectsInsertion) {
  BlockCache cache(0);
  EXPECT_FALSE(cache.CanInsert());
  EXPECT_TRUE(cache.Full());
}

TEST(BlockCacheTest, ScanFromLruVisitsInLruOrder) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  std::vector<BlockId> visited;
  cache.ScanFromLru([&](CacheEntry& entry) {
    visited.push_back(entry.block);
    return false;
  });
  EXPECT_EQ(visited, (std::vector<BlockId>{B(1), B(2), B(3)}));
}

TEST(BlockCacheTest, ScanFromLruStopsOnMatch) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  CacheEntry* found = cache.ScanFromLru([](CacheEntry& entry) { return entry.block == B(2); });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->block, B(2));
}

TEST(BlockCacheTest, ScanFromLruRespectsLimit) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Insert(B(3));
  int seen = 0;
  CacheEntry* found = cache.ScanFromLru(
      [&](CacheEntry&) {
        ++seen;
        return false;
      },
      2);
  EXPECT_EQ(found, nullptr);
  EXPECT_EQ(seen, 2);
}

TEST(BlockCacheTest, ForEachEntryVisitsAll) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  int count = 0;
  cache.ForEachEntry([&count](const CacheEntry&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(BlockCacheTest, ClearEmptiesCache) {
  BlockCache cache(4);
  cache.Insert(B(1));
  cache.Insert(B(2));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lru(), nullptr);
  cache.Insert(B(3));  // Still usable.
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCacheTest, EntryMetadataDefaults) {
  BlockCache cache(1);
  const CacheEntry& entry = cache.Insert(B(7));
  EXPECT_EQ(entry.recirculation_count(), 0);
  EXPECT_FALSE(entry.singlet_flag());
  EXPECT_FALSE(entry.recirculating());
  EXPECT_EQ(entry.last_ref, 0);
}

class BlockCacheLruProperty : public ::testing::TestWithParam<std::size_t> {};

// Property: after any sequence of inserts/touches with LRU eviction, the
// cache holds exactly the `capacity` most recently used distinct blocks.
TEST_P(BlockCacheLruProperty, MatchesReferenceModel) {
  const std::size_t capacity = GetParam();
  BlockCache cache(capacity);
  std::vector<std::uint32_t> reference;  // front = MRU.
  unsigned state = 99;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 3000; ++step) {
    const std::uint32_t file = next() % 50;
    // Reference model update.
    auto it = std::find(reference.begin(), reference.end(), file);
    if (it != reference.end()) {
      reference.erase(it);
    }
    reference.insert(reference.begin(), file);
    if (reference.size() > capacity) {
      reference.pop_back();
    }
    // Cache update.
    if (cache.Touch(B(file)) == nullptr) {
      while (cache.Full()) {
        cache.EvictLru();
      }
      cache.Insert(B(file));
    }
    // Compare.
    ASSERT_EQ(cache.size(), reference.size());
    for (std::uint32_t expected : reference) {
      ASSERT_TRUE(cache.Contains(B(expected)));
    }
    ASSERT_EQ(cache.Mru()->block, B(reference.front()));
    ASSERT_EQ(cache.Lru()->block, B(reference.back()));
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BlockCacheLruProperty, ::testing::Values(1, 2, 5, 16, 49));

// Blocks of `klass`, oldest first, as the cache's class list holds them.
std::vector<BlockId> ClassBlocks(BlockCache& cache, std::size_t klass) {
  std::vector<BlockId> blocks;
  cache.ScanClassFromLru(klass, [&blocks](const CacheEntry& entry) {
    blocks.push_back(entry.block);
    return false;
  });
  return blocks;
}

TEST(BlockCacheTest, ClassOfFollowsMarks) {
  BlockCache cache(2);
  CacheEntry& entry = cache.Insert(B(1));
  EXPECT_EQ(BlockCache::ClassOf(entry), BlockCache::kUnmarkedClass);
  cache.SetMarks(entry, 0, true);
  EXPECT_EQ(BlockCache::ClassOf(entry), BlockCache::kNoClass);
  cache.SetMarks(entry, 3, true);
  EXPECT_EQ(BlockCache::ClassOf(entry), 3u);
  cache.SetMarks(entry, 3, false);  // The count, not the flag, selects the list.
  EXPECT_EQ(BlockCache::ClassOf(entry), 3u);
  EXPECT_EQ(cache.num_classes(), 4u);
  EXPECT_EQ(cache.RecirculatingCount(), 1u);
}

// Inserts blocks 1..`count` (1 oldest) and flags `flagged`, leaving the
// rest on the unmarked list.
void FillAndFlag(BlockCache& cache, std::uint32_t count,
                 const std::vector<std::uint32_t>& flagged) {
  for (std::uint32_t file = 1; file <= count; ++file) {
    cache.Insert(B(file));
  }
  for (std::uint32_t file : flagged) {
    cache.SetMarks(*cache.Find(B(file)), 0, true);
  }
}

std::vector<BlockId> Blocks(const std::vector<std::uint32_t>& files) {
  std::vector<BlockId> blocks;
  for (std::uint32_t file : files) {
    blocks.push_back(B(file));
  }
  return blocks;
}

TEST(BlockCacheTest, LruStampsRiseWithInsertAndTouch) {
  BlockCache cache(3);
  const std::uint64_t first = cache.Insert(B(1)).lru_stamp();
  const std::uint64_t second = cache.Insert(B(2)).lru_stamp();
  EXPECT_LT(first, second);
  EXPECT_GT(cache.Touch(B(1))->lru_stamp(), second);
  cache.SetMarks(*cache.Find(B(2)), 3, true);  // Marks do not reorder.
  EXPECT_EQ(cache.Find(B(2))->lru_stamp(), second);
}

// A flag reset between two unmarked members joins the class at its LRU
// position, and a scan visits it there.
TEST(BlockCacheTest, FlagResetBetweenUnmarkedMembersIsScannedInLruOrder) {
  BlockCache cache(8);
  FillAndFlag(cache, 5, {2, 3, 4});
  ASSERT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 5}));
  cache.SetMarks(*cache.Find(B(3)), 0, false);
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 3, 5}));
  cache.SetMarks(*cache.Find(B(4)), 0, false);
  cache.SetMarks(*cache.Find(B(2)), 0, false);
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 2, 3, 4, 5}));
  EXPECT_EQ(cache.ClassSize(BlockCache::kUnmarkedClass), 5u);
  const CacheEntry* stop = cache.ScanClassFromLru(
      BlockCache::kUnmarkedClass, [](const CacheEntry& entry) { return entry.block == B(3); });
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(stop->block, B(3));
}

TEST(BlockCacheTest, LateMemberLeavesOnTouchEraseAndRemark) {
  BlockCache cache(8);
  FillAndFlag(cache, 5, {2, 3, 4});
  cache.SetMarks(*cache.Find(B(2)), 0, false);
  cache.SetMarks(*cache.Find(B(3)), 0, false);
  ASSERT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 2, 3, 5}));

  cache.Touch(B(2));  // Late -> newest end of the list.
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 3, 5, 2}));
  EXPECT_EQ(cache.Mru()->block, B(2));

  cache.SetMarks(*cache.Find(B(3)), 2, true);  // Late -> a count class.
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 5, 2}));
  EXPECT_EQ(ClassBlocks(cache, 2), Blocks({3}));
  EXPECT_EQ(cache.RecirculatingCount(), 1u);
  cache.SetMarks(*cache.Find(B(3)), 0, false);  // ... and back, between 1 and 5.
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 3, 5, 2}));
  EXPECT_EQ(cache.RecirculatingCount(), 0u);

  EXPECT_TRUE(cache.Erase(B(3)));
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 5, 2}));
  EXPECT_EQ(cache.ClassSize(BlockCache::kUnmarkedClass), 3u);
  cache.Insert(B(3));  // The freed slot is reused as a fresh, newest entry.
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 5, 2, 3}));
}

// A visitor that re-marks what it visits, while late and linked members of
// the scanned class interleave and re-marked entries join another class
// between two of its members.
TEST(BlockCacheTest, ScanVisitorRemarksInterleavedLateAndLinkedMembers) {
  BlockCache cache(12);
  cache.Insert(B(0));
  FillAndFlag(cache, 9, {2, 4, 6, 8});
  cache.SetMarks(*cache.Find(B(0)), 1, true);
  cache.SetMarks(*cache.Find(B(9)), 1, true);
  for (std::uint32_t file : {6, 2, 4}) {
    cache.SetMarks(*cache.Find(B(file)), 0, false);
  }
  ASSERT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({1, 2, 3, 4, 5, 6, 7}));

  std::vector<BlockId> visited;
  const CacheEntry* stop =
      cache.ScanClassFromLru(BlockCache::kUnmarkedClass, [&](CacheEntry& entry) {
        visited.push_back(entry.block);
        if (entry.block == B(7)) {
          return true;
        }
        // Even blocks go to count class 1 (between 0 and 9), odd ones are
        // flagged out of every class.
        const bool even = entry.block.file % 2 == 0;
        cache.SetMarks(entry, even ? 1 : 0, !even);
        return false;
      });
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(stop->block, B(7));
  EXPECT_EQ(visited, Blocks({1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(ClassBlocks(cache, BlockCache::kUnmarkedClass), Blocks({7}));
  EXPECT_EQ(ClassBlocks(cache, 1), Blocks({0, 2, 4, 6, 9}));
  EXPECT_EQ(cache.ClassSize(1), 5u);
  EXPECT_EQ(cache.RecirculatingCount(), 5u);
}

TEST(BlockCacheTest, ClassLruReturnsLateMember) {
  BlockCache cache(8);
  FillAndFlag(cache, 4, {});
  cache.SetMarks(*cache.Find(B(1)), 2, true);
  cache.SetMarks(*cache.Find(B(4)), 2, true);
  cache.SetMarks(*cache.Find(B(2)), 2, true);  // Between 1 and 4.
  ASSERT_EQ(cache.ClassLru(2)->block, B(1));
  cache.Erase(B(1));
  ASSERT_NE(cache.ClassLru(2), nullptr);
  EXPECT_EQ(cache.ClassLru(2)->block, B(2));
  EXPECT_EQ(ClassBlocks(cache, 2), Blocks({2, 4}));
}

class BlockCacheClassIndexProperty : public ::testing::TestWithParam<std::size_t> {};

// Property: under random Insert/Touch/Erase/EvictLru and mark changes, every
// eviction-class list equals a plain vector model of the LRU order filtered
// to that class (so its oldest entry is the model's oldest of the class),
// and the recirculating classes' sizes add up to RecirculatingCount.
TEST_P(BlockCacheClassIndexProperty, ClassListsFilterTheLruOrder) {
  constexpr std::uint8_t kMaxCount = 4;
  struct ModelEntry {
    std::uint32_t file;
    std::uint8_t count;
    bool flag;
  };
  auto model_class = [](const ModelEntry& entry) {
    if (entry.count > 0) {
      return static_cast<std::size_t>(entry.count);
    }
    return entry.flag ? BlockCache::kNoClass : BlockCache::kUnmarkedClass;
  };
  const std::size_t capacity = GetParam();
  BlockCache cache(capacity);
  std::vector<ModelEntry> model;  // front = LRU.
  unsigned state = 7;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t file = next() % 40;
    auto it = std::find_if(model.begin(), model.end(),
                           [file](const ModelEntry& entry) { return entry.file == file; });
    switch (next() % 5) {
      case 0:  // Reference: touch, or insert after an LRU eviction.
      case 1:
        if (it != model.end()) {
          const ModelEntry touched = *it;
          model.erase(it);
          model.push_back(touched);
          ASSERT_NE(cache.Touch(B(file)), nullptr);
        } else {
          if (model.size() == capacity) {
            model.erase(model.begin());
            ASSERT_TRUE(cache.EvictLru().has_value());
          }
          model.push_back({file, 0, false});
          cache.Insert(B(file));
        }
        break;
      case 2:  // Erase (a miss is a no-op on both sides).
        if (it != model.end()) {
          model.erase(it);
        }
        cache.Erase(B(file));
        break;
      case 3:  // Evict the LRU entry.
        if (!model.empty()) {
          model.erase(model.begin());
        }
        cache.EvictLru();
        break;
      default:  // Change the marks of a cached block.
        if (it != model.end()) {
          const auto count = static_cast<std::uint8_t>(next() % 2 == 0 ? 0 : next() % kMaxCount);
          const bool flag = next() % 2 == 0;
          it->count = count;
          it->flag = flag;
          cache.SetMarks(*cache.Find(B(file)), count, flag);
        }
        break;
    }

    ASSERT_EQ(cache.size(), model.size());
    std::size_t recirculating = 0;
    for (std::size_t klass = 0; klass < kMaxCount; ++klass) {
      std::vector<BlockId> expected;
      for (const ModelEntry& entry : model) {
        if (model_class(entry) == klass) {
          expected.push_back(B(entry.file));
        }
      }
      ASSERT_EQ(ClassBlocks(cache, klass), expected) << "class " << klass << " at step " << step;
      ASSERT_EQ(cache.ClassSize(klass), expected.size());
      const CacheEntry* oldest = cache.ClassLru(klass);
      ASSERT_EQ(oldest == nullptr, expected.empty());
      if (oldest != nullptr) {
        ASSERT_EQ(oldest->block, expected.front());
      }
      recirculating += klass == BlockCache::kUnmarkedClass ? 0 : expected.size();
    }
    ASSERT_EQ(cache.RecirculatingCount(), recirculating);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BlockCacheClassIndexProperty,
                         ::testing::Values(1, 2, 5, 16, 39));

}  // namespace
}  // namespace coopfs
