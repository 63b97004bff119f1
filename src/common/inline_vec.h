// Small-size-optimized vector for hot-path element sets.
//
// The server directory keeps one holder set per tracked block; the paper's
// workloads leave most blocks with one or two holders (§2.4: N-Chance
// actively kills duplicates), so a heap-allocated std::vector per block
// wastes an allocation and a pointer chase on almost every AddHolder /
// RemoveHolder. InlineVec stores up to N elements inside the object and
// only touches the heap for the rare block cached by more than N clients.
//
// Restricted to trivially copyable element types (ids, packed ids) so
// growth and moves are memcpy-class operations and the destructor of the
// inline case is trivial.
#ifndef COOPFS_SRC_COMMON_INLINE_VEC_H_
#define COOPFS_SRC_COMMON_INLINE_VEC_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "src/common/arena.h"

namespace coopfs {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>, "InlineVec is for trivially copyable types");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  // Activates the pointer variant so element types with default member
  // initializers (non-trivial default ctors) can sit in the union; elements
  // are trivially copyable, so slots are written without construction.
  InlineVec() : heap_(nullptr) {}

  InlineVec(const InlineVec& other) { CopyFrom(other); }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }

  InlineVec(InlineVec&& other) noexcept { StealFrom(other); }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      Release();
      StealFrom(other);
    }
    return *this;
  }

  ~InlineVec() { Release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_ & kCapacityMask; }
  static constexpr std::size_t inline_capacity() { return N; }
  bool inlined() const { return (capacity_ & kCapacityMask) == N; }
  // Whether the spilled storage came from an Arena (and so must not be
  // delete[]d). Always false while inline.
  bool arena_backed() const { return (capacity_ & kArenaFlag) != 0; }

  // One owner-defined bit kept in the capacity word, so it costs no space
  // (the directory marks registered holder sets with it). It survives growth
  // and clear(), travels with copies and moves, and a moved-from vector
  // loses it.
  bool tag() const { return (capacity_ & kTagFlag) != 0; }
  void set_tag(bool on) { capacity_ = on ? (capacity_ | kTagFlag) : (capacity_ & ~kTagFlag); }

  T* data() { return inlined() ? inline_ : heap_; }
  const T* data() const { return inlined() ? inline_ : heap_; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }

  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == capacity()) {
      Grow(nullptr);
    }
    data()[size_++] = value;
  }

  // Like push_back, but a spill past the inline capacity draws its heap
  // block from `arena` (null falls back to the global heap). Arena-backed
  // storage is never freed by this container — the arena reclaims it
  // wholesale at Reset().
  void push_back(const T& value, Arena* arena) {
    if (size_ == capacity()) {
      Grow(arena);
    }
    data()[size_++] = value;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  void clear() { size_ = 0; }

  // Removes the element at `i` by swapping the last element in (order is
  // not preserved — holder sets are unordered anyway).
  void SwapRemoveAt(std::size_t i) {
    assert(i < size_);
    data()[i] = data()[size_ - 1];
    --size_;
  }

  // SwapRemoveAt of the first element equal to `value`; returns whether one
  // was found.
  bool SwapRemove(const T& value) {
    T* base = data();
    for (std::size_t i = 0; i < size_; ++i) {
      if (base[i] == value) {
        SwapRemoveAt(i);
        return true;
      }
    }
    return false;
  }

  bool ContainsValue(const T& value) const {
    const T* base = data();
    for (std::size_t i = 0; i < size_; ++i) {
      if (base[i] == value) {
        return true;
      }
    }
    return false;
  }

 private:
  // The two high bits of capacity_ are flags: arena-backed heap storage and
  // the owner's tag. Inline capacities are tiny and growth doubles from N, so
  // real capacities never reach them.
  static constexpr std::uint32_t kArenaFlag = 0x80000000u;
  static constexpr std::uint32_t kTagFlag = 0x40000000u;
  static constexpr std::uint32_t kCapacityMask = ~(kArenaFlag | kTagFlag);

  void Grow(Arena* arena) {
    const std::size_t new_capacity = capacity() * 2;
    T* fresh;
    std::uint32_t flag = 0;
    if (arena != nullptr) {
      fresh = static_cast<T*>(arena->Allocate(new_capacity * sizeof(T), alignof(T)));
      flag = kArenaFlag;
    } else {
      fresh = new T[new_capacity];
    }
    std::memcpy(fresh, data(), size_ * sizeof(T));
    const std::uint32_t tag = capacity_ & kTagFlag;
    Release();
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(new_capacity) | flag | tag;
  }

  void Release() {
    if (!inlined() && !arena_backed()) {
      delete[] heap_;
    }
    capacity_ = N;
  }

  // Copies always land on the global heap: the copy may outlive the source's
  // arena, and holder-list copies (policy snapshots) are cold-path anyway.
  void CopyFrom(const InlineVec& other) {
    size_ = other.size_;
    const std::uint32_t tag = other.capacity_ & kTagFlag;
    if (other.inlined()) {
      capacity_ = N | tag;
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    } else {
      heap_ = new T[other.capacity()];
      capacity_ = static_cast<std::uint32_t>(other.capacity()) | tag;
      std::memcpy(heap_, other.heap_, size_ * sizeof(T));
    }
  }

  // Takes other's storage; leaves other empty and inline.
  void StealFrom(InlineVec& other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.inlined()) {
      std::memcpy(inline_, other.inline_, size_ * sizeof(T));
    } else {
      heap_ = other.heap_;
    }
    other.capacity_ = N;
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  union {
    T inline_[N];
    T* heap_;
  };
};

}  // namespace coopfs

#endif  // COOPFS_SRC_COMMON_INLINE_VEC_H_
