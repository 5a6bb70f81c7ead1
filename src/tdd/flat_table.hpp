/// \file flat_table.hpp
/// The two hash-table layouts of the TDD kernel's memos: flat, open-addressed
/// or direct-mapped, and allocation-free per entry, as in CUDD's and
/// Sylvan's tables.  Neither table is ever emptied in place: a caller drops
/// a table with release() or by letting it go out of scope.
///
/// `FlatCache<K, V, Hash>` is the exact memo: the contraction cache's
/// gamma-suffix table, and the per-call memos of slice / conjugate / rename,
/// io, to_dot, the auditor, qts::operator_trace and Subspace::add_states.
///
///   * entries sit densely, in insertion order, in one vector, which grows
///     (and may move them) on insert: a found pointer is good until the
///     next insert;
///   * an open-addressing index of 32-bit slots (linear probing, load <= 1/2)
///     points at them; a slot holds an entry's position + 1, and 0 marks it
///     empty.  When the index would pass half full it doubles and is rebuilt
///     from the entries' keys;
///   * nothing is allocated until the first insert, and there is no
///     eviction: a key, once inserted, is found until release().
///
/// `ComputedTable<K, V, Hash>` is the lossy memo behind the two operation
/// caches (add, contraction), which persist across calls: the computed table
/// of Brace, Rudell and Bryant, CUDD and Sylvan.
///
///   * a power-of-two array of inline {key, value, used} slots, direct-mapped
///     by the key's hash; an insert overwrites whatever its slot holds, so a
///     key, once inserted, is found until another key lands on its slot;
///   * nothing is allocated until the first insert; the array then starts at
///     kInitialSlots and doubles, re-placing every live entry, each time the
///     evictions since the last resize reach the slot count, until it holds
///     kMaxSlots.  A table that stops churning stops growing, and no table
///     ever holds more than kMaxSlots slots.
///
/// Keys and values must be trivially copyable (they are pointers, levels and
/// complex weights).  `Hash` must return a well-mixed 64-bit value: both
/// tables take its low bits directly (see hash_finish).  Which entries a
/// ComputedTable keeps depends on where they land, so a hash that should
/// repeat from run to run must not read addresses.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qts::tdd {

// -- hashing ------------------------------------------------------------------

/// Fold one 64-bit word into a running hash (multiply-rotate, FxHash style).
/// Cheap, but it only spreads bits upwards: finish with hash_finish.
[[nodiscard]] inline std::uint64_t hash_step(std::uint64_t h, std::uint64_t word) {
  return (std::rotl(h, 5) ^ word) * 0x517cc1b727220a95ULL;
}

/// The MurmurHash3 64-bit finaliser: every output bit depends on every input
/// bit, so masks of the low (or any) bits index evenly.
[[nodiscard]] inline std::uint64_t hash_finish(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

[[nodiscard]] inline std::uint64_t hash_word(const void* p) {
  return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
}

/// Bits of a double.  Callers hash only bucketed() weights, which never hold
/// -0.0, so equal values have equal bits.
[[nodiscard]] inline std::uint64_t hash_word(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Hash of a pointer key (node memos and visited sets).
struct PtrHash {
  std::uint64_t operator()(const void* p) const { return hash_finish(hash_word(p)); }
};

// -- FlatCache ----------------------------------------------------------------

template <typename K, typename V, typename Hash = PtrHash>
class FlatCache {
  static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_destructible_v<K>);
  static_assert(std::is_trivially_copyable_v<V> && std::is_trivially_destructible_v<V>);

 public:
  static constexpr std::size_t kMinIndexSlots = 64;  // power of two

  struct Entry {
    K key;
    [[no_unique_address]] V value;
  };

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] const V* find(const K& key) const {
    if (index_.empty()) return nullptr;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask; index_[i] != 0; i = (i + 1) & mask) {
      const Entry& e = entries_[index_[i] - 1];
      if (e.key == key) return &e.value;
    }
    return nullptr;
  }
  [[nodiscard]] V* find(const K& key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  [[nodiscard]] bool contains(const K& key) const { return find(key) != nullptr; }

  /// Store `value` under `key` unless the key is present; the existing value
  /// is then kept (std::unordered_map::emplace semantics).  Returns true if
  /// the entry is new.  Throws ResourceExhausted(kMemory) once 2^32 - 1
  /// entries are live: positions are 32-bit and never wrap.
  bool insert(const K& key, const V& value) {
    if (2 * (entries_.size() + 1) > index_.size()) grow_index();
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Hash{}(key) & mask;
    for (; index_[i] != 0; i = (i + 1) & mask) {
      if (entries_[index_[i] - 1].key == key) return false;
    }
    if (entries_.size() >= kMaxEntries) {
      throw ResourceExhausted(Resource::kMemory,
                              "TDD hash table: more than 2^32 - 1 entries in one cache");
    }
    entries_.push_back(Entry{key, value});
    index_[i] = static_cast<std::uint32_t>(entries_.size());
    return true;
  }

  /// Free everything; the table is back to its unallocated initial state.
  void release() {
    entries_ = std::vector<Entry>();
    index_ = std::vector<std::uint32_t>();
  }

  /// Visit every entry as f(key, value), in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Entry& e : entries_) f(e.key, e.value);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Heap bytes held: entries plus index.
  [[nodiscard]] std::size_t bytes() const {
    return entries_.capacity() * sizeof(Entry) + index_.size() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kMaxEntries = std::numeric_limits<std::uint32_t>::max();

  /// Double the index (or allocate the first one) and re-index every entry
  /// from its key.
  void grow_index() {
    index_.assign(std::max(kMinIndexSlots, std::bit_ceil(2 * (entries_.size() + 1))), 0);
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
      std::size_t i = Hash{}(entries_[pos].key) & mask;
      while (index_[i] != 0) i = (i + 1) & mask;
      index_[i] = static_cast<std::uint32_t>(pos + 1);
    }
  }

  std::vector<Entry> entries_;        // in insertion order
  std::vector<std::uint32_t> index_;  // position + 1 of an entry, or 0 when empty
};

// -- ComputedTable ------------------------------------------------------------

template <typename K, typename V, typename Hash>
class ComputedTable {
  static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_destructible_v<K>);
  static_assert(std::is_trivially_copyable_v<V> && std::is_trivially_destructible_v<V>);

  struct Slot {
    K key;
    V value;
    bool used;
  };

 public:
  static constexpr std::size_t kInitialSlots = 1024;           // power of two
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 15;  // power of two
  /// The most heap bytes a table ever holds.
  static constexpr std::size_t kMaxBytes = kMaxSlots * sizeof(Slot);

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] const V* find(const K& key) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[Hash{}(key) & (slots_.size() - 1)];
    return s.used && s.key == key ? &s.value : nullptr;
  }

  /// Store `value` under `key`, overwriting whatever entry held its slot.
  void insert(const K& key, const V& value) {
    if (slots_.empty()) slots_.assign(kInitialSlots, Slot{});
    Slot& s = slots_[Hash{}(key) & (slots_.size() - 1)];
    if (!s.used) {
      ++size_;
    } else if (!(s.key == key)) {
      ++evictions_;
    }
    s = Slot{key, value, true};
    if (evictions_ >= slots_.size() && slots_.size() < kMaxSlots) grow();
  }

  /// Free everything; the table is back to its unallocated initial state.
  void release() {
    slots_ = std::vector<Slot>();
    size_ = 0;
    evictions_ = 0;
  }

  /// Visit every live entry as f(key, value), in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }

  /// Live entries: those a find() would return.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Heap bytes held: the slot array.
  [[nodiscard]] std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  /// Double the array and re-place the live entries.  Slot i of the old
  /// array maps to slot i or i + old size of the new one, so no two live
  /// entries meet and none is lost.
  void grow() {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(2 * slots_.size(), Slot{}));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.used) slots_[Hash{}(s.key) & mask] = s;
    }
    evictions_ = 0;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t evictions_ = 0;  // since the last resize
};

}  // namespace qts::tdd
