#include "src/common/inline_vec.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/types.h"

namespace coopfs {
namespace {

TEST(InlineVecTest, StartsEmptyAndInline) {
  InlineVec<ClientId, 4> vec;
  EXPECT_TRUE(vec.empty());
  EXPECT_EQ(vec.size(), 0u);
  EXPECT_TRUE(vec.inlined());
  EXPECT_EQ(vec.capacity(), 4u);
}

TEST(InlineVecTest, PushWithinInlineCapacity) {
  InlineVec<ClientId, 4> vec;
  for (ClientId c = 0; c < 4; ++c) {
    vec.push_back(c * 10);
  }
  EXPECT_TRUE(vec.inlined());
  EXPECT_EQ(vec.size(), 4u);
  EXPECT_EQ(vec.front(), 0u);
  EXPECT_EQ(vec.back(), 30u);
  for (ClientId c = 0; c < 4; ++c) {
    EXPECT_EQ(vec[c], c * 10);
  }
}

TEST(InlineVecTest, SpillsToHeapAndKeepsContents) {
  InlineVec<ClientId, 4> vec;
  for (ClientId c = 0; c < 20; ++c) {
    vec.push_back(c);
  }
  EXPECT_FALSE(vec.inlined());
  EXPECT_EQ(vec.size(), 20u);
  for (ClientId c = 0; c < 20; ++c) {
    EXPECT_EQ(vec[c], c);
  }
}

TEST(InlineVecTest, RangeForIteration) {
  InlineVec<ClientId, 2> vec;
  vec.push_back(5);
  vec.push_back(6);
  vec.push_back(7);  // Spill.
  std::vector<ClientId> seen;
  for (ClientId c : vec) {
    seen.push_back(c);
  }
  EXPECT_EQ(seen, (std::vector<ClientId>{5, 6, 7}));
}

TEST(InlineVecTest, SwapRemoveSemantics) {
  InlineVec<ClientId, 4> vec;
  vec.push_back(1);
  vec.push_back(2);
  vec.push_back(3);
  EXPECT_TRUE(vec.SwapRemove(1));   // Last element (3) takes its place.
  EXPECT_EQ(vec.size(), 2u);
  EXPECT_EQ(vec[0], 3u);
  EXPECT_EQ(vec[1], 2u);
  EXPECT_FALSE(vec.SwapRemove(99));  // Absent.
  EXPECT_TRUE(vec.ContainsValue(2));
  EXPECT_FALSE(vec.ContainsValue(1));
}

TEST(InlineVecTest, CopyAndMovePreserveContents) {
  InlineVec<ClientId, 2> spilled;
  for (ClientId c = 0; c < 9; ++c) {
    spilled.push_back(c);
  }
  InlineVec<ClientId, 2> copy(spilled);
  EXPECT_EQ(copy.size(), 9u);
  for (ClientId c = 0; c < 9; ++c) {
    EXPECT_EQ(copy[c], c);
  }
  InlineVec<ClientId, 2> moved(std::move(copy));
  EXPECT_EQ(moved.size(), 9u);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): spec'd empty.
  InlineVec<ClientId, 2> assigned;
  assigned.push_back(77);
  assigned = spilled;
  EXPECT_EQ(assigned.size(), 9u);
  EXPECT_EQ(assigned[8], 8u);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 9u);
}

TEST(InlineVecTest, ClearKeepsCapacity) {
  InlineVec<ClientId, 4> vec;
  for (ClientId c = 0; c < 10; ++c) {
    vec.push_back(c);
  }
  const std::size_t capacity = vec.capacity();
  vec.clear();
  EXPECT_TRUE(vec.empty());
  EXPECT_EQ(vec.capacity(), capacity);
  vec.push_back(3);
  EXPECT_EQ(vec[0], 3u);
}

TEST(InlineVecTest, TagSurvivesGrowthCopyAndMove) {
  Arena arena;
  InlineVec<ClientId, 2> vec;
  EXPECT_FALSE(vec.tag());
  vec.set_tag(true);
  EXPECT_TRUE(vec.inlined());
  EXPECT_EQ(vec.capacity(), 2u);
  for (ClientId c = 0; c < 5; ++c) {
    vec.push_back(c, &arena);  // Spills into the arena.
  }
  EXPECT_TRUE(vec.tag());
  EXPECT_TRUE(vec.arena_backed());
  EXPECT_EQ(vec.capacity(), 8u);
  vec.clear();
  EXPECT_TRUE(vec.tag());

  InlineVec<ClientId, 2> inline_tagged;
  inline_tagged.set_tag(true);
  inline_tagged.push_back(4);
  const InlineVec<ClientId, 2> copy(inline_tagged);
  EXPECT_TRUE(copy.tag());
  EXPECT_TRUE(copy.inlined());
  EXPECT_EQ(copy[0], 4u);
  InlineVec<ClientId, 2> moved(std::move(inline_tagged));
  EXPECT_TRUE(moved.tag());
  EXPECT_FALSE(inline_tagged.tag());  // NOLINT(bugprone-use-after-move): spec'd reset.
  moved.set_tag(false);
  EXPECT_FALSE(moved.tag());
  EXPECT_EQ(moved.capacity(), 2u);
  EXPECT_EQ(moved[0], 4u);
}

// Randomized differential test against std::vector (push/pop/swap-remove).
class InlineVecDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InlineVecDifferential, MatchesVectorReference) {
  std::uint64_t state = GetParam() ? GetParam() : 1;
  auto next = [&state] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
  };
  InlineVec<std::uint32_t, 4> vec;
  std::vector<std::uint32_t> reference;
  for (int step = 0; step < 10'000; ++step) {
    switch (next() % 4) {
      case 0:
      case 1: {  // push_back (biased: sets should grow).
        const auto value = static_cast<std::uint32_t>(next() % 64);
        vec.push_back(value);
        reference.push_back(value);
        break;
      }
      case 2: {  // SwapRemove by value.
        const auto value = static_cast<std::uint32_t>(next() % 64);
        const auto it = std::find(reference.begin(), reference.end(), value);
        const bool ref_removed = it != reference.end();
        if (ref_removed) {
          *it = reference.back();
          reference.pop_back();
        }
        ASSERT_EQ(vec.SwapRemove(value), ref_removed);
        break;
      }
      case 3: {  // pop_back.
        if (!reference.empty()) {
          reference.pop_back();
          vec.pop_back();
        }
        break;
      }
    }
    ASSERT_EQ(vec.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(vec[i], reference[i]) << "index " << i << " at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InlineVecDifferential,
                         ::testing::Values(1u, 99u, 4096u, 123'456'789u));

}  // namespace
}  // namespace coopfs
