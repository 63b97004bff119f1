// Fixed-capacity LRU block cache.
//
// One BlockCache models one machine's in-memory file cache: the local cache
// of every client, each client's private remote cache under Direct Client
// Cooperation, and the server's central cache. Entries carry the per-block
// metadata the N-Chance algorithm needs (recirculation count and the
// "known singlet" flag of paper §2.4) plus a last-reference timestamp for
// Weighted-LRU.
//
// Policies need fine-grained control of replacement (N-Chance's modified
// victim selection prefers particular kinds of block, oldest first), so
// eviction is explicit: Insert requires free space and callers evict first,
// either EvictLru(), by scanning with entries in LRU order, or from one of
// the eviction-class lists below.
//
// Storage layout (replay hot path): entries live in a slab sized to the
// fixed capacity at construction, so CacheEntry pointers — and the intrusive
// LRU list nodes they embed — are stable for the cache's lifetime. A
// FlatHashMap from packed BlockId to slab slot, reserved up front, makes
// every Find/Touch/Insert/Erase allocation-free and rehash-free.
//
// Eviction-class index: besides the LRU list, each entry sits on at most one
// class list chosen by its N-Chance marks — unmarked entries on one list,
// recirculating entries on one list per remaining count, flag-marked
// non-recirculating singlets on none. Every class list is the LRU list
// filtered to its class (same relative order), so "the oldest unmarked
// block" or "the oldest block with the fewest recirculations left" is found
// without stepping past known singlets. The lists link by 32-bit slab slot
// and fit in CacheEntry's padding. The index only changes how victims are
// found, never which: SetMarks is the marks' only writer, so the lists
// cannot drift from the marks.
#ifndef COOPFS_SRC_CACHE_BLOCK_CACHE_H_
#define COOPFS_SRC_CACHE_BLOCK_CACHE_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flat_hash_map.h"
#include "src/common/intrusive_list.h"
#include "src/common/types.h"

namespace coopfs {

// Cache-line aligned, so the fields a Touch or Erase writes — the LRU node,
// the class links, the marks, last_ref — share one line.
class alignas(64) CacheEntry {
 public:
  BlockId block;
  IntrusiveListNode lru_node;

  // Simulated time of the last reference to this copy (Weighted-LRU ages).
  Micros last_ref = 0;

  // Delayed-write extension: this copy holds data newer than the server's.
  Micros dirty_since = 0;
  bool dirty = false;

  // N-Chance: recirculations remaining. > 0 means this copy is a singlet
  // recirculating through caches it was forwarded to (global data).
  std::uint8_t recirculation_count() const { return recirculation_count_; }

  // N-Chance: the client learned this block is the last cached copy but is
  // holding it as normal local data (no recirculation count set). Spares a
  // repeat is-singlet query; reset when another client fetches a copy.
  bool singlet_flag() const { return singlet_flag_; }

  bool recirculating() const { return recirculation_count_ > 0; }

 private:
  friend class BlockCache;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // The marks above; written only by BlockCache::SetMarks.
  std::uint8_t recirculation_count_ = 0;
  bool singlet_flag_ = false;

  // Neighbours on this entry's class list, as slab slots (kNoSlot past the
  // oldest / newest end or when on no list).
  std::uint32_t class_older_ = kNoSlot;
  std::uint32_t class_newer_ = kNoSlot;
};

// The class links fit in what would otherwise be padding.
static_assert(sizeof(CacheEntry) == 64);

class BlockCache {
 public:
  // Capacity in 8 KB blocks. A zero-capacity cache is legal (e.g. the local
  // section when 100% of client memory is centrally coordinated) and simply
  // rejects insertion. The entry slab and the index are fully allocated
  // here; steady-state operation never allocates. With an arena, the slab,
  // free list, and index all draw from it (sweep workers reuse one arena
  // across jobs instead of re-faulting fresh heap pages per job).
  explicit BlockCache(std::size_t capacity_blocks, Arena* arena = nullptr)
      : capacity_(capacity_blocks),
        slab_(capacity_blocks, ArenaAllocator<CacheEntry>(arena)),
        free_slots_(ArenaAllocator<std::uint32_t>(arena)),
        index_(arena),
        recirculating_(ArenaAllocator<ClassList>(arena)) {
    assert(capacity_ < CacheEntry::kNoSlot);
    index_.Reserve(capacity_);
    free_slots_.reserve(capacity_);
    // Pop from the back: slots are handed out in ascending order.
    for (std::size_t i = capacity_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;
  BlockCache(BlockCache&&) = delete;
  BlockCache& operator=(BlockCache&&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return index_.size(); }
  bool Full() const { return size() >= capacity_; }
  bool CanInsert() const { return capacity_ > 0; }

  bool Contains(BlockId block) const { return index_.Contains(block.Pack()); }

  // Lookup without changing LRU order. Returns nullptr if absent. Entry
  // pointers stay valid until that block is erased (slab storage).
  CacheEntry* Find(BlockId block) {
    const std::uint32_t* slot = index_.Find(block.Pack());
    return slot == nullptr ? nullptr : &slab_[*slot];
  }
  const CacheEntry* Find(BlockId block) const {
    const std::uint32_t* slot = index_.Find(block.Pack());
    return slot == nullptr ? nullptr : &slab_[*slot];
  }

  // Lookup and move to the MRU position. Returns nullptr if absent.
  CacheEntry* Touch(BlockId block) {
    CacheEntry* entry = Find(block);
    if (entry != nullptr) {
      lru_.MoveToFront(entry);
      if (const std::size_t klass = ClassOf(*entry); klass != kNoClass) {
        ClassList& list = ListOf(klass);
        if (list.newest != SlotOf(*entry)) {
          Unlink(*entry, list);
          LinkNewest(*entry, list);
        }
      }
    }
    return entry;
  }

  // Inserts a new, unmarked entry at the MRU position. Requires space
  // (callers evict first) and that the block is not already present.
  CacheEntry& Insert(BlockId block) {
    assert(CanInsert() && !Full());
    auto [slot, inserted] = index_.TryEmplace(block.Pack());
    assert(inserted && "block already cached");
    *slot = free_slots_.back();
    free_slots_.pop_back();
    CacheEntry& entry = slab_[*slot];
    entry = CacheEntry{};  // Fresh metadata; the slot's node is unlinked.
    entry.block = block;
    lru_.PushFront(&entry);
    LinkNewest(entry, unmarked_);
    return entry;
  }

  // Removes `block` if present; returns true if it was.
  bool Erase(BlockId block) {
    const std::uint32_t* slot = index_.Find(block.Pack());
    if (slot == nullptr) {
      return false;
    }
    const std::uint32_t freed = *slot;
    CacheEntry& entry = slab_[freed];
    if (const std::size_t klass = ClassOf(entry); klass != kNoClass) {
      Unlink(entry, ListOf(klass));
    }
    lru_.Remove(&entry);
    index_.Erase(block.Pack());
    free_slots_.push_back(freed);
    return true;
  }

  // The least-recently-used entry, or nullptr when empty.
  CacheEntry* Lru() { return lru_.Back(); }
  CacheEntry* Mru() { return lru_.Front(); }

  // Evicts the LRU entry, returning a copy of it.
  std::optional<CacheEntry> EvictLru() {
    CacheEntry* victim = Lru();
    if (victim == nullptr) {
      return std::nullopt;
    }
    CacheEntry copy = *victim;
    copy.lru_node = IntrusiveListNode{};
    Erase(victim->block);
    return copy;
  }

  // Visits entries from LRU to MRU until `visitor` returns true (stop) or
  // `limit` entries have been seen (0 = no limit). Returns the entry the
  // visitor stopped on, or nullptr. The visitor must not mutate the cache.
  // List order is deterministic and independent of index capacity.
  template <typename Visitor>
  CacheEntry* ScanFromLru(Visitor&& visitor, std::size_t limit = 0) {
    std::size_t seen = 0;
    for (IntrusiveListNode* node = LruNodeBack(); node != nullptr;) {
      auto* entry = static_cast<CacheEntry*>(node->owner);
      IntrusiveListNode* prev = PrevOf(node);
      if (visitor(*entry)) {
        return entry;
      }
      if (limit != 0 && ++seen >= limit) {
        return nullptr;
      }
      node = prev;
    }
    return nullptr;
  }

  // Visits every entry in unspecified, capacity-dependent order
  // (introspection/validation). Callers must aggregate order-independently;
  // use ScanFromLru for deterministic order.
  template <typename Visitor>
  void ForEachEntry(Visitor&& visitor) const {
    index_.ForEach(
        [this, &visitor](std::uint64_t, const std::uint32_t& slot) { visitor(slab_[slot]); });
  }

  // ---- N-Chance marks and the eviction-class index ----

  // Class 0 holds unmarked entries; class c >= 1 holds entries with c
  // recirculations left; kNoClass (flag-marked, non-recirculating singlets)
  // is on no list.
  static constexpr std::size_t kUnmarkedClass = 0;
  static constexpr std::size_t kNoClass = ~std::size_t{0};

  static std::size_t ClassOf(const CacheEntry& entry) {
    if (entry.recirculating()) {
      return entry.recirculation_count_;
    }
    return entry.singlet_flag_ ? kNoClass : kUnmarkedClass;
  }

  // Sets `entry`'s N-Chance marks — their only writer — and moves it to its
  // LRU-order position on the new class list. `entry` must belong to this
  // cache. O(1) unless the class changes to a non-empty list; then a walk
  // outward along the LRU list to the nearest same-class neighbour.
  void SetMarks(CacheEntry& entry, std::uint8_t recirculation_count, bool singlet_flag) {
    const std::size_t before = ClassOf(entry);
    entry.recirculation_count_ = recirculation_count;
    entry.singlet_flag_ = singlet_flag;
    const std::size_t after = ClassOf(entry);
    if (before == after) {
      return;
    }
    if (before != kNoClass) {
      Unlink(entry, ListOf(before));
    }
    if (after != kNoClass) {
      LinkInLruOrder(entry, after);
    }
  }

  // Classes that have a list: the unmarked class plus every recirculation
  // count seen so far (lists are created lazily, up to the policy's n).
  std::size_t num_classes() const { return 1 + recirculating_.size(); }

  std::size_t ClassSize(std::size_t klass) const {
    return klass < num_classes() ? ListOf(klass).size : 0;
  }

  // The oldest entry of `klass`, or nullptr if it has none.
  CacheEntry* ClassLru(std::size_t klass) {
    return klass < num_classes() ? EntryAt(ListOf(klass).oldest) : nullptr;
  }

  // ScanFromLru restricted to one class list, in the same relative order.
  // The visitor may change the marks of the entry it is visiting (via
  // SetMarks) but must not otherwise mutate the cache.
  template <typename Visitor>
  CacheEntry* ScanClassFromLru(std::size_t klass, Visitor&& visitor) {
    if (klass >= num_classes()) {
      return nullptr;
    }
    for (CacheEntry* entry = EntryAt(ListOf(klass).oldest); entry != nullptr;) {
      CacheEntry* newer = EntryAt(entry->class_newer_);
      if (visitor(*entry)) {
        return entry;
      }
      entry = newer;
    }
    return nullptr;
  }

  // ---- Introspection gauges (state sampling; off the hot path) ----

  // Entries currently recirculating (N-Chance copies in flight).
  std::size_t RecirculatingCount() const {
    std::size_t count = 0;
    for (const ClassList& list : recirculating_) {
      count += list.size;
    }
    return count;
  }

  // Entries holding dirty (unflushed) data under delayed writes.
  std::size_t DirtyCount() const {
    std::size_t count = 0;
    ForEachEntry([&count](const CacheEntry& entry) { count += entry.dirty ? 1 : 0; });
    return count;
  }

  // Block-index occupancy and probe-length statistics (observability).
  FlatMapStats IndexStats() const { return index_.Stats(); }

  // Removes every entry. (Used by tests.)
  void Clear() {
    lru_.Clear();
    index_.Clear();
    unmarked_ = ClassList{};
    recirculating_.clear();
    free_slots_.clear();
    for (std::size_t i = capacity_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }

 private:
  // One class list: oldest/newest slab slots and its length.
  struct ClassList {
    std::uint32_t oldest = CacheEntry::kNoSlot;
    std::uint32_t newest = CacheEntry::kNoSlot;
    std::uint32_t size = 0;
  };

  // Back (LRU) node or nullptr when empty; Prev walks toward MRU.
  IntrusiveListNode* LruNodeBack() {
    CacheEntry* back = lru_.Back();
    return back == nullptr ? nullptr : &back->lru_node;
  }
  IntrusiveListNode* PrevOf(IntrusiveListNode* node) {
    IntrusiveListNode* prev = node->prev;
    return (prev == nullptr || prev->owner == nullptr) ? nullptr : prev;
  }

  std::uint32_t SlotOf(const CacheEntry& entry) const {
    return static_cast<std::uint32_t>(&entry - slab_.data());
  }
  CacheEntry* EntryAt(std::uint32_t slot) {
    return slot == CacheEntry::kNoSlot ? nullptr : &slab_[slot];
  }

  ClassList& ListOf(std::size_t klass) {
    return klass == kUnmarkedClass ? unmarked_ : recirculating_[klass - 1];
  }
  const ClassList& ListOf(std::size_t klass) const {
    return klass == kUnmarkedClass ? unmarked_ : recirculating_[klass - 1];
  }

  // Links `entry` into `list` between `older` and `newer` (kNoSlot = end).
  void LinkBetween(CacheEntry& entry, ClassList& list, std::uint32_t older,
                   std::uint32_t newer) {
    const std::uint32_t slot = SlotOf(entry);
    entry.class_older_ = older;
    entry.class_newer_ = newer;
    (older == CacheEntry::kNoSlot ? list.oldest : slab_[older].class_newer_) = slot;
    (newer == CacheEntry::kNoSlot ? list.newest : slab_[newer].class_older_) = slot;
    ++list.size;
  }
  void LinkNewest(CacheEntry& entry, ClassList& list) {
    LinkBetween(entry, list, list.newest, CacheEntry::kNoSlot);
  }

  void Unlink(CacheEntry& entry, ClassList& list) {
    const std::uint32_t older = entry.class_older_;
    const std::uint32_t newer = entry.class_newer_;
    (older == CacheEntry::kNoSlot ? list.oldest : slab_[older].class_newer_) = newer;
    (newer == CacheEntry::kNoSlot ? list.newest : slab_[newer].class_older_) = older;
    entry.class_older_ = CacheEntry::kNoSlot;
    entry.class_newer_ = CacheEntry::kNoSlot;
    --list.size;
  }

  // Links `entry` (on the LRU list, on no class list) into `klass` at its
  // LRU-order position. Walks the LRU list outward, one step each way per
  // round: the first same-class neighbour fixes the position, and reaching
  // either end of the LRU list first makes `entry` that end of its class.
  void LinkInLruOrder(CacheEntry& entry, std::size_t klass) {
    if (klass > recirculating_.size()) {
      recirculating_.resize(klass);
    }
    ClassList& list = ListOf(klass);
    if (list.size == 0) {
      LinkNewest(entry, list);
      return;
    }
    const IntrusiveListNode* toward_mru = entry.lru_node.prev;
    const IntrusiveListNode* toward_lru = entry.lru_node.next;
    while (true) {
      if (toward_mru->owner == nullptr) {
        LinkNewest(entry, list);
        return;
      }
      if (const auto& newer = *static_cast<const CacheEntry*>(toward_mru->owner);
          ClassOf(newer) == klass) {
        LinkBetween(entry, list, newer.class_older_, SlotOf(newer));
        return;
      }
      if (toward_lru->owner == nullptr) {
        LinkBetween(entry, list, CacheEntry::kNoSlot, list.oldest);
        return;
      }
      if (const auto& older = *static_cast<const CacheEntry*>(toward_lru->owner);
          ClassOf(older) == klass) {
        LinkBetween(entry, list, SlotOf(older), older.class_newer_);
        return;
      }
      toward_mru = toward_mru->prev;
      toward_lru = toward_lru->next;
    }
  }

  std::size_t capacity_;
  // Stable entry storage, one per slot.
  std::vector<CacheEntry, ArenaAllocator<CacheEntry>> slab_;
  // Unused slab slots (LIFO).
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> free_slots_;
  FlatHashMap<std::uint64_t, std::uint32_t> index_;  // Packed BlockId -> slot.
  IntrusiveList<CacheEntry, &CacheEntry::lru_node> lru_;
  // Eviction-class lists: unmarked entries, and entries with c
  // recirculations left at recirculating_[c - 1].
  ClassList unmarked_;
  std::vector<ClassList, ArenaAllocator<ClassList>> recirculating_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CACHE_BLOCK_CACHE_H_
