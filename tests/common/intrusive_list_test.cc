#include "src/common/intrusive_list.h"

#include <vector>

#include <gtest/gtest.h>

namespace coopfs {
namespace {

struct Item {
  Item() = default;
  explicit Item(int v) : value(v) {}

  int value = 0;
  IntrusiveListNode node;
};

using ItemList = IntrusiveList<Item, &Item::node>;

std::vector<int> Values(ItemList& list) {
  std::vector<int> out;
  for (Item& item : list) {
    out.push_back(item.value);
  }
  return out;
}

TEST(IntrusiveListTest, StartsEmpty) {
  ItemList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.Front(), nullptr);
  EXPECT_EQ(list.Back(), nullptr);
  EXPECT_EQ(list.PopFront(), nullptr);
  EXPECT_EQ(list.PopBack(), nullptr);
}

TEST(IntrusiveListTest, PushFrontOrdering) {
  ItemList list;
  Item a{1}, b{2}, c{3};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);
  EXPECT_EQ(Values(list), (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(list.Front(), &c);
  EXPECT_EQ(list.Back(), &a);
}

TEST(IntrusiveListTest, PushBackOrdering) {
  ItemList list;
  Item a{1}, b{2}, c{3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(Values(list), (std::vector<int>{1, 2, 3}));
}

TEST(IntrusiveListTest, RemoveMiddle) {
  ItemList list;
  Item a{1}, b{2}, c{3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(Values(list), (std::vector<int>{1, 3}));
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(ItemList::IsLinked(&b));
  EXPECT_TRUE(ItemList::IsLinked(&a));
}

TEST(IntrusiveListTest, MoveToFrontImplementsLruRenewal) {
  ItemList list;
  Item a{1}, b{2}, c{3};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);  // c b a
  list.MoveToFront(&a);
  EXPECT_EQ(Values(list), (std::vector<int>{1, 3, 2}));
  list.MoveToBack(&a);
  EXPECT_EQ(Values(list), (std::vector<int>{3, 2, 1}));
}

TEST(IntrusiveListTest, PopFrontAndBack) {
  ItemList list;
  Item a{1}, b{2}, c{3};
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(list.PopFront(), &a);
  EXPECT_EQ(list.PopBack(), &c);
  EXPECT_EQ(list.PopBack(), &b);
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveListTest, ClearUnlinksEverything) {
  ItemList list;
  Item a{1}, b{2};
  list.PushBack(&a);
  list.PushBack(&b);
  list.Clear();
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(ItemList::IsLinked(&a));
  EXPECT_FALSE(ItemList::IsLinked(&b));
  // Reusable after Clear.
  list.PushBack(&b);
  EXPECT_EQ(list.Front(), &b);
}

TEST(IntrusiveListTest, UnlinkIsIdempotent) {
  Item a{1};
  a.node.Unlink();  // Never linked: no-op.
  ItemList list;
  list.PushBack(&a);
  list.Remove(&a);
  a.node.Unlink();  // Already unlinked: no-op.
  EXPECT_TRUE(list.empty());
}

struct MultiItem {
  explicit MultiItem(int v) : value(v) {}

  int value = 0;
  IntrusiveListNode lru_node;
  IntrusiveListNode dirty_node;
};

TEST(IntrusiveListTest, OneObjectOnTwoLists) {
  IntrusiveList<MultiItem, &MultiItem::lru_node> lru;
  IntrusiveList<MultiItem, &MultiItem::dirty_node> dirty;
  MultiItem a{1};
  MultiItem b{2};
  lru.PushBack(&a);
  lru.PushBack(&b);
  dirty.PushBack(&b);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(dirty.size(), 1u);
  dirty.Remove(&b);
  EXPECT_EQ(lru.size(), 2u);  // Removing from one list leaves the other.
  EXPECT_EQ(lru.Back(), &b);
}

class ListStressProperty : public ::testing::TestWithParam<int> {};

TEST_P(ListStressProperty, RandomOpsKeepSizeConsistent) {
  const int n = GetParam();
  std::vector<Item> items(static_cast<std::size_t>(n));
  ItemList list;
  std::size_t expected = 0;
  // Deterministic pseudo-random op mix without a real RNG dependency.
  unsigned state = 12345;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state >> 16;
  };
  for (int step = 0; step < 5000; ++step) {
    Item& item = items[next() % static_cast<unsigned>(n)];
    if (ItemList::IsLinked(&item)) {
      if (next() % 3 == 0) {
        list.Remove(&item);
        --expected;
      } else {
        list.MoveToFront(&item);
      }
    } else {
      if (next() % 2 == 0) {
        list.PushFront(&item);
      } else {
        list.PushBack(&item);
      }
      ++expected;
    }
    ASSERT_EQ(list.size(), expected);
  }
  // Full traversal matches size.
  EXPECT_EQ(Values(list).size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListStressProperty, ::testing::Values(1, 2, 7, 64));

}  // namespace
}  // namespace coopfs
