// FlatMap: open-addressing hash map with linear probing over a single
// contiguous slot array.
//
// Replaces node-based maps on the hot paths: the oracle location map /
// Assignment, client location caches, WorkloadGraph interning, the object
// store, the multicast dedupe set and the servers' per-command
// coordination records. One cache line per probe instead of a bucket
// pointer chase, no per-node allocation. Power-of-two capacity, byte-wise
// control array (empty / full / tombstone), max load factor 3/4 including
// tombstones. When tombstones push the table over that cap while live
// entries fill less than half of it, the table is rebuilt at the same
// capacity, so insert/erase churn over distinct keys keeps the capacity
// proportional to the live size rather than to the history.
//
// Semantics notes:
//  * erase(iterator) leaves a tombstone, so iterators to other elements
//    stay valid across erases. Any insert may rehash, which invalidates
//    every iterator and reference (as with unordered_map): never hold a
//    reference into the map across an insert into the same map.
//  * Iteration order is slot order — deterministic given the same sequence
//    of operations, which is what same-seed reproducibility needs.
//  * Keys and values must be default-constructible and movable. Values may
//    own resources (containers, shared_ptr): erase and clear release them
//    at once by resetting the slot. Copies are deep (snapshot semantics).
//  * The hasher's low bits pick the home slot, so it must mix well. Use
//    mix64 (or std::hash<StrongId>, which is mix64) for integer keys whose
//    structure lives in the high bits, such as (sender << 32) | seq.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace dynastar::common {

/// splitmix64 finalizer: a cheap bijective 64-bit mix whose low bits depend
/// on every input bit. The one hash for integer keys in this codebase.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hasher for raw 64-bit keys (std::hash<std::uint64_t> is the identity).
struct Mix64Hash {
  std::size_t operator()(std::uint64_t x) const noexcept {
    return static_cast<std::size_t>(mix64(x));
  }
};

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;

  FlatMap() = default;

  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(Map* map, std::size_t index) : map_(map), index_(index) {
      skip_to_full();
    }
    // const_iterator from iterator.
    template <bool C = Const, typename = std::enable_if_t<C>>
    Iter(const Iter<false>& other)  // NOLINT(runtime/explicit)
        : map_(other.map_), index_(other.index_) {}

    reference operator*() const { return map_->slots_[index_]; }
    pointer operator->() const { return &map_->slots_[index_]; }

    Iter& operator++() {
      ++index_;
      skip_to_full();
      return *this;
    }
    Iter operator++(int) {
      Iter tmp = *this;
      ++*this;
      return tmp;
    }

    bool operator==(const Iter& other) const { return index_ == other.index_; }

   private:
    friend class FlatMap;
    void skip_to_full() {
      while (index_ < map_->ctrl_.size() && map_->ctrl_[index_] != kFull)
        ++index_;
    }
    Map* map_ = nullptr;
    std::size_t index_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, ctrl_.size()); }
  const_iterator begin() const {
    return const_iterator(this, 0);
  }
  const_iterator end() const {
    return const_iterator(this, ctrl_.size());
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Number of slots (live + tombstone + empty); a power of two or 0.
  [[nodiscard]] std::size_t capacity() const { return ctrl_.size(); }

  void clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    for (auto& slot : slots_) slot = value_type{};
    size_ = 0;
    used_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    // Grow until n fits under the 3/4 load cap.
    while (cap * 3 < n * 4) cap <<= 1;
    if (cap > ctrl_.size()) rehash(cap);
  }

  iterator find(const K& key) {
    const std::size_t i = find_index(key);
    return iterator(this, i == kNotFound ? ctrl_.size() : i);
  }
  const_iterator find(const K& key) const {
    const std::size_t i = find_index(key);
    return const_iterator(this, i == kNotFound ? ctrl_.size() : i);
  }

  [[nodiscard]] bool contains(const K& key) const {
    return find_index(key) != kNotFound;
  }
  [[nodiscard]] std::size_t count(const K& key) const {
    return contains(key) ? 1 : 0;
  }

  V& operator[](const K& key) {
    return slots_[insert_slot(key)].second;
  }

  V& at(const K& key) {
    const std::size_t i = find_index(key);
    assert(i != kNotFound && "FlatMap::at: missing key");
    return slots_[i].second;
  }
  const V& at(const K& key) const {
    const std::size_t i = find_index(key);
    assert(i != kNotFound && "FlatMap::at: missing key");
    return slots_[i].second;
  }

  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    return try_emplace(key, std::forward<Args>(args)...);
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    const std::size_t before = size_;
    const std::size_t i = insert_slot(key);
    const bool inserted = size_ != before;
    if (inserted) slots_[i].second = V(std::forward<Args>(args)...);
    return {iterator(this, i), inserted};
  }

  std::pair<iterator, bool> insert(const value_type& kv) {
    return try_emplace(kv.first, kv.second);
  }

  std::size_t erase(const K& key) {
    const std::size_t i = find_index(key);
    if (i == kNotFound) return 0;
    erase_index(i);
    return 1;
  }

  iterator erase(iterator pos) {
    assert(pos.map_ == this && ctrl_[pos.index_] == kFull);
    erase_index(pos.index_);
    return iterator(this, pos.index_ + 1);
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kTomb = 2;
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t mask() const { return ctrl_.size() - 1; }

  [[nodiscard]] std::size_t find_index(const K& key) const {
    if (ctrl_.empty()) return kNotFound;
    std::size_t i = Hash{}(key) & mask();
    for (;;) {
      if (ctrl_[i] == kEmpty) return kNotFound;
      if (ctrl_[i] == kFull && slots_[i].first == key) return i;
      i = (i + 1) & mask();
    }
  }

  /// Finds the slot for `key`, inserting (possibly reusing a tombstone and
  /// possibly rehashing) if absent. Returns the slot index.
  std::size_t insert_slot(const K& key) {
    if (ctrl_.empty()) rehash(kMinCapacity);
    std::size_t i = Hash{}(key) & mask();
    std::size_t first_tomb = kNotFound;
    for (;;) {
      if (ctrl_[i] == kEmpty) break;
      if (ctrl_[i] == kFull && slots_[i].first == key) return i;
      if (ctrl_[i] == kTomb && first_tomb == kNotFound) first_tomb = i;
      i = (i + 1) & mask();
    }
    if (first_tomb != kNotFound) {
      i = first_tomb;  // reuse the tombstone; used_ stays constant
    } else {
      ++used_;
    }
    ctrl_[i] = kFull;
    slots_[i].first = key;
    slots_[i].second = V{};
    ++size_;
    if (used_ * 4 > ctrl_.size() * 3) {
      // Mostly tombstones: purge them in place instead of growing.
      rehash(size_ * 2 < ctrl_.size() ? ctrl_.size() : ctrl_.size() * 2);
      return find_index(key);
    }
    return i;
  }

  void erase_index(std::size_t i) {
    ctrl_[i] = kTomb;
    slots_[i] = value_type{};  // drop any held resources
    --size_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<value_type> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    slots_.assign(new_cap, value_type{});
    size_ = 0;
    used_ = 0;
    for (std::size_t j = 0; j < old_ctrl.size(); ++j) {
      if (old_ctrl[j] != kFull) continue;
      std::size_t i = Hash{}(old_slots[j].first) & mask();
      while (ctrl_[i] != kEmpty) i = (i + 1) & mask();
      ctrl_[i] = kFull;
      slots_[i] = std::move(old_slots[j]);
      ++size_;
      ++used_;
    }
  }

  std::vector<std::uint8_t> ctrl_;
  std::vector<value_type> slots_;
  std::size_t size_ = 0;  // live entries
  std::size_t used_ = 0;  // live entries + tombstones
};

}  // namespace dynastar::common
