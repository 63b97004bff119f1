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
//
// LRU order stamps: Insert and Touch give an entry the next value of a
// per-cache 64-bit counter, so LRU order is stamp order. An entry joining a
// class links at the newest or oldest end of its list when its stamp lies
// beyond that end (always so for Insert and Touch). A join between two list
// members — a singlet-flag reset, or a recirculation-count merge — goes to
// a small stamp-sorted vector of "late" members instead. The class is the
// stamp-order merge of its list and its late members, which equals the LRU
// list filtered to the class. A late member leaves the vector when it is
// touched, erased or re-marked.
#ifndef COOPFS_SRC_CACHE_BLOCK_CACHE_H_
#define COOPFS_SRC_CACHE_BLOCK_CACHE_H_

#include <algorithm>
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
  bool dirty = false;

  // N-Chance: recirculations remaining. > 0 means this copy is a singlet
  // recirculating through caches it was forwarded to (global data).
  std::uint8_t recirculation_count() const { return recirculation_count_; }

  // N-Chance: the client learned this block is the last cached copy but is
  // holding it as normal local data (no recirculation count set). Spares a
  // repeat is-singlet query; reset when another client fetches a copy.
  bool singlet_flag() const { return singlet_flag_; }

  bool recirculating() const { return recirculation_count_ > 0; }

  // Position in its cache's LRU order: set from a per-cache counter by
  // Insert and Touch, so a larger stamp is more recently used.
  std::uint64_t lru_stamp() const { return stamp_; }

 private:
  friend class BlockCache;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // The marks above; written only by BlockCache::SetMarks.
  std::uint8_t recirculation_count_ = 0;
  bool singlet_flag_ = false;

  // A member of its class held in the cache's late vector, not on the list.
  bool late_ = false;

  // Neighbours on this entry's class list, as slab slots (kNoSlot past the
  // oldest / newest end or when on no list).
  std::uint32_t class_older_ = kNoSlot;
  std::uint32_t class_newer_ = kNoSlot;

  std::uint64_t stamp_ = 0;
};

// The class links and the stamp fit in one cache line.
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
        recirculating_(ArenaAllocator<ClassList>(arena)),
        late_(ArenaAllocator<LateMember>(arena)) {
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
    if (entry == nullptr) {
      return nullptr;
    }
    lru_.MoveToFront(entry);
    if (const std::size_t klass = ClassOf(*entry); klass != kNoClass) {
      ClassList& list = ListOf(klass);
      if (entry->late_ || list.newest != SlotOf(*entry)) {
        Leave(*entry, klass);  // Before the restamp: a late member is found by stamp.
        LinkNewest(*entry, list);
      }
    }
    entry->stamp_ = ++next_stamp_;
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
    entry.stamp_ = ++next_stamp_;
    lru_.PushFront(&entry);
    LinkNewest(entry, unmarked_);
    return entry;
  }

  // Removes `block` if present; returns true if it was.
  bool Erase(BlockId block) {
    const std::optional<std::uint32_t> slot = index_.Extract(block.Pack());
    if (!slot.has_value()) {
      return false;
    }
    CacheEntry& entry = slab_[*slot];
    if (const std::size_t klass = ClassOf(entry); klass != kNoClass) {
      Leave(entry, klass);
    }
    lru_.Remove(&entry);
    free_slots_.push_back(*slot);
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
  // LRU-order position in the new class. `entry` must belong to this cache.
  // O(1) when the entry joins at either end of the class list (or leaves a
  // list); a join between two members, or leaving the late vector, is a
  // binary search plus a shift of the k late members.
  void SetMarks(CacheEntry& entry, std::uint8_t recirculation_count, bool singlet_flag) {
    const std::size_t before = ClassOf(entry);
    entry.recirculation_count_ = recirculation_count;
    entry.singlet_flag_ = singlet_flag;
    const std::size_t after = ClassOf(entry);
    if (before == after) {
      return;
    }
    if (before != kNoClass) {
      Leave(entry, before);
    }
    if (after != kNoClass) {
      Join(entry, after);
    }
  }

  // Classes that have a list: the unmarked class plus every recirculation
  // count seen so far (lists are created lazily, up to the policy's n).
  std::size_t num_classes() const { return 1 + recirculating_.size(); }

  std::size_t ClassSize(std::size_t klass) const {
    if (klass >= num_classes()) {
      return 0;
    }
    std::size_t size = ListOf(klass).size;
    for (const LateMember& late : late_) {
      size += late.klass == klass ? 1 : 0;
    }
    return size;
  }

  // The oldest entry of `klass`, or nullptr if it has none.
  CacheEntry* ClassLru(std::size_t klass) {
    if (klass >= num_classes()) {
      return nullptr;
    }
    CacheEntry* linked = EntryAt(ListOf(klass).oldest);
    CacheEntry* late = NextLate(klass, 0);
    return Older(late, linked) ? late : linked;
  }

  // ScanFromLru restricted to one class, in the same relative order: the
  // class list and the class's late members merged by stamp. The visitor
  // may change the marks of the entry it is visiting (via SetMarks) but must
  // not otherwise mutate the cache.
  template <typename Visitor>
  CacheEntry* ScanClassFromLru(std::size_t klass, Visitor&& visitor) {
    if (klass >= num_classes()) {
      return nullptr;
    }
    // Both successors are found before the visit: a re-mark moves only the
    // visited entry, and nothing joins `klass` while it is scanned.
    CacheEntry* linked = EntryAt(ListOf(klass).oldest);
    CacheEntry* late = NextLate(klass, 0);
    while (linked != nullptr || late != nullptr) {
      CacheEntry* entry;
      if (Older(late, linked)) {
        entry = late;
        late = NextLate(klass, late->stamp_);
      } else {
        entry = linked;
        linked = EntryAt(linked->class_newer_);
      }
      if (visitor(*entry)) {
        return entry;
      }
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
    for (const LateMember& late : late_) {
      count += late.klass != kUnmarkedClass ? 1 : 0;
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
    late_.clear();
    next_stamp_ = 0;
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

  // A class member whose stamp lies between two members of its class list.
  // Its class is kept here (it cannot change while late), so filtering the
  // vector by class reads no entry.
  struct LateMember {
    std::uint64_t stamp;
    std::uint32_t slot;
    std::uint32_t klass;
  };
  using LateVector = std::vector<LateMember, ArenaAllocator<LateMember>>;

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

  // Adds `entry` (on no class) to `klass` at its LRU-order position: at
  // either end of the class list when its stamp lies beyond that end,
  // otherwise among the late members.
  void Join(CacheEntry& entry, std::size_t klass) {
    if (klass > recirculating_.size()) {
      recirculating_.resize(klass);
    }
    ClassList& list = ListOf(klass);
    if (list.size == 0 || entry.stamp_ > slab_[list.newest].stamp_) {
      LinkNewest(entry, list);
    } else if (entry.stamp_ < slab_[list.oldest].stamp_) {
      LinkBetween(entry, list, CacheEntry::kNoSlot, list.oldest);
    } else {
      late_.insert(LateBound(entry.stamp_), LateMember{entry.stamp_, SlotOf(entry),
                                                       static_cast<std::uint32_t>(klass)});
      entry.late_ = true;
    }
  }

  // Removes `entry` from `klass`, its current class.
  void Leave(CacheEntry& entry, std::size_t klass) {
    if (!entry.late_) {
      Unlink(entry, ListOf(klass));
      return;
    }
    const auto it = LateBound(entry.stamp_);
    assert(it != late_.end() && it->slot == SlotOf(entry));
    late_.erase(it);
    entry.late_ = false;
  }

  // The first late member with a stamp of at least `stamp`.
  LateVector::iterator LateBound(std::uint64_t stamp) {
    return std::lower_bound(
        late_.begin(), late_.end(), stamp,
        [](const LateMember& late, std::uint64_t bound) { return late.stamp < bound; });
  }

  // The oldest late member of `klass` newer than `stamp`, or nullptr.
  CacheEntry* NextLate(std::size_t klass, std::uint64_t stamp) {
    for (auto it = LateBound(stamp + 1); it != late_.end(); ++it) {
      if (it->klass == klass) {
        return &slab_[it->slot];
      }
    }
    return nullptr;
  }

  // Whether `a` precedes `b` in LRU order (nullptr = past the newest end).
  static bool Older(const CacheEntry* a, const CacheEntry* b) {
    return a != nullptr && (b == nullptr || a->stamp_ < b->stamp_);
  }

  std::size_t capacity_;
  // Stable entry storage, one per slot.
  std::vector<CacheEntry, ArenaAllocator<CacheEntry>> slab_;
  // Unused slab slots (LIFO).
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> free_slots_;
  FlatHashMap<std::uint64_t, std::uint32_t> index_;  // Packed BlockId -> slot.
  IntrusiveList<CacheEntry, &CacheEntry::lru_node> lru_;
  std::uint64_t next_stamp_ = 0;  // The last stamp handed out.
  // Eviction-class lists: unmarked entries, and entries with c
  // recirculations left at recirculating_[c - 1].
  ClassList unmarked_;
  std::vector<ClassList, ArenaAllocator<ClassList>> recirculating_;
  // Late class members of every class, sorted by stamp.
  LateVector late_;
};

}  // namespace coopfs

#endif  // COOPFS_SRC_CACHE_BLOCK_CACHE_H_
