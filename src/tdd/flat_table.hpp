/// \file flat_table.hpp
/// The two hash-table layouts of the TDD kernel's memos: flat, open-addressed
/// or direct-mapped, and allocation-free per entry, as in CUDD's and
/// Sylvan's tables.
///
/// `FlatCache<K, V, Hash>` is the exact memo: the contraction cache's
/// gamma-suffix table, and the per-call memos of slice / conjugate / rename,
/// io and the auditor.
///
///   * entries sit densely, in insertion order, in fixed chunks of
///     kChunkEntries — growth adds a chunk and never copies or moves an
///     entry, so an entry's address is stable until clear();
///   * an open-addressing index of 8-byte {pos, gen} slots (linear probing,
///     load <= 1/2) points at them; a slot is live only while its `gen`
///     equals the table's generation, so clear() is one increment — O(1),
///     not O(buckets).  When the generation wraps at 2^32 the index is
///     zeroed once and numbering restarts;
///   * nothing is allocated until the first insert, and there is no
///     eviction: a key, once inserted, is found until clear() or release().
///
/// `ComputedTable<K, V, Hash>` is the lossy memo behind the two operation
/// caches (add, contraction), which persist across calls: the computed table
/// of Brace, Rudell and Bryant, CUDD and Sylvan.
///
///   * a power-of-two array of inline {key, value, gen} slots, direct-mapped
///     by the key's hash; an insert overwrites whatever its slot holds, so a
///     key, once inserted, is found until another key lands on its slot;
///   * clear() is O(1) by generation, as in FlatCache;
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
#include <memory>
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
  static constexpr std::size_t kChunkEntries = 1024;  // power of two
  static constexpr std::size_t kMinIndexSlots = 64;   // power of two

  struct Entry {
    K key;
    [[no_unique_address]] V value;
  };

  FlatCache() = default;
  FlatCache(const FlatCache&) = delete;
  FlatCache& operator=(const FlatCache&) = delete;
  FlatCache(FlatCache&& other) noexcept { *this = std::move(other); }
  FlatCache& operator=(FlatCache&& other) noexcept {
    if (this != &other) {
      index_ = std::exchange(other.index_, {});
      chunks_ = std::exchange(other.chunks_, {});
      size_ = std::exchange(other.size_, 0);
      gen_ = std::exchange(other.gen_, 1);
    }
    return *this;
  }
  ~FlatCache() = default;

  /// The value stored under `key`, or nullptr.
  [[nodiscard]] const V* find(const K& key) const {
    if (index_.empty()) return nullptr;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      const Slot s = index_[i];
      if (s.gen != gen_) return nullptr;
      const Entry& e = entry(s.pos);
      if (e.key == key) return &e.value;
    }
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
    if (2 * (size_ + 1) > index_.size()) grow_index();
    const std::size_t mask = index_.size() - 1;
    std::size_t i = Hash{}(key) & mask;
    for (;; i = (i + 1) & mask) {
      const Slot s = index_[i];
      if (s.gen != gen_) break;
      if (entry(s.pos).key == key) return false;
    }
    if (size_ >= kMaxEntries) {
      throw ResourceExhausted(Resource::kMemory,
                              "TDD hash table: more than 2^32 - 1 entries in one cache");
    }
    if (size_ == chunks_.size() * kChunkEntries) chunks_.push_back(make_chunk());
    const auto pos = static_cast<std::uint32_t>(size_);
    std::construct_at(&entry(pos), Entry{key, value});
    index_[i] = Slot{pos, gen_};
    ++size_;
    return true;
  }

  /// Forget every entry in O(1); chunks and index are kept for reuse.
  void clear() {
    size_ = 0;
    ++gen_;
    if (gen_ == 0) restart_generations(1);
  }

  /// Free everything; the table is back to its unallocated initial state.
  void release() {
    clear();
    index_ = std::vector<Slot>();
    chunks_ = std::vector<Chunk>();
  }

  /// Visit every live entry as f(key, value), in insertion order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t pos = 0; pos < size_; ++pos) {
      const Entry& e = entry(pos);
      f(e.key, e.value);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t chunks() const { return chunks_.size(); }
  [[nodiscard]] std::size_t index_slots() const { return index_.size(); }
  /// Heap bytes held: entry chunks plus index.
  [[nodiscard]] std::size_t bytes() const {
    return chunks_.size() * kChunkEntries * sizeof(Entry) + index_.size() * sizeof(Slot);
  }

  /// Test seam: forget every entry and continue numbering clears from
  /// `gen` (nonzero), so a test can drive the 2^32 wraparound.
  void set_generation_for_testing(std::uint32_t gen) {
    size_ = 0;
    restart_generations(gen == 0 ? 1 : gen);
  }

 private:
  struct Slot {
    std::uint32_t pos = 0;
    std::uint32_t gen = 0;  // 0 never matches: generations start at 1
  };
  static_assert(sizeof(Slot) == 8);

  struct ChunkFree {
    void operator()(Entry* p) const { std::allocator<Entry>{}.deallocate(p, kChunkEntries); }
  };
  using Chunk = std::unique_ptr<Entry[], ChunkFree>;

  static constexpr std::size_t kMaxEntries = std::numeric_limits<std::uint32_t>::max();

  /// Raw storage; entries are constructed on insert, never destroyed
  /// (trivially destructible).
  static Chunk make_chunk() { return Chunk(std::allocator<Entry>{}.allocate(kChunkEntries)); }

  [[nodiscard]] static std::size_t index_slots_for(std::size_t entries) {
    return std::max(kMinIndexSlots, std::bit_ceil(2 * entries));
  }

  [[nodiscard]] const Entry& entry(std::size_t pos) const {
    return chunks_[pos / kChunkEntries][pos % kChunkEntries];
  }
  [[nodiscard]] Entry& entry(std::size_t pos) {
    return chunks_[pos / kChunkEntries][pos % kChunkEntries];
  }

  void restart_generations(std::uint32_t gen) {
    std::fill(index_.begin(), index_.end(), Slot{});
    gen_ = gen;
  }

  /// Double the index (or allocate the first one) and re-index the live
  /// entries from their keys; the entries themselves stay where they are.
  void grow_index() {
    index_.assign(index_slots_for(size_ + 1), Slot{});
    const std::size_t mask = index_.size() - 1;
    for (std::size_t pos = 0; pos < size_; ++pos) {
      std::size_t i = Hash{}(entry(pos).key) & mask;
      while (index_[i].gen == gen_) i = (i + 1) & mask;
      index_[i] = Slot{static_cast<std::uint32_t>(pos), gen_};
    }
  }

  std::vector<Slot> index_;
  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
  std::uint32_t gen_ = 1;
};

// -- ComputedTable ------------------------------------------------------------

template <typename K, typename V, typename Hash>
class ComputedTable {
  static_assert(std::is_trivially_copyable_v<K> && std::is_trivially_destructible_v<K>);
  static_assert(std::is_trivially_copyable_v<V> && std::is_trivially_destructible_v<V>);

  struct Slot {
    K key;
    V value;
    std::uint32_t gen;  // 0 never matches: generations start at 1
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
    return s.gen == gen_ && s.key == key ? &s.value : nullptr;
  }

  /// Store `value` under `key`, overwriting whatever entry held its slot.
  void insert(const K& key, const V& value) {
    if (slots_.empty()) slots_.assign(kInitialSlots, Slot{});
    Slot& s = slots_[Hash{}(key) & (slots_.size() - 1)];
    if (s.gen != gen_) {
      ++size_;
    } else if (!(s.key == key)) {
      ++evictions_;
    }
    s = Slot{key, value, gen_};
    if (evictions_ >= slots_.size() && slots_.size() < kMaxSlots) grow();
  }

  /// Forget every entry in O(1); the slot array is kept for reuse.
  void clear() {
    size_ = 0;
    ++gen_;
    if (gen_ == 0) restart_generations(1);
  }

  /// Free everything; the table is back to its unallocated initial state.
  void release() {
    slots_ = std::vector<Slot>();
    size_ = 0;
    evictions_ = 0;
    gen_ = 1;
  }

  /// Visit every live entry as f(key, value), in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.gen == gen_) f(s.key, s.value);
    }
  }

  /// Live entries: those a find() would return.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t slots() const { return slots_.size(); }
  /// Heap bytes held: the slot array.
  [[nodiscard]] std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Test seam: forget every entry and continue numbering clears from
  /// `gen` (nonzero), so a test can drive the 2^32 wraparound.
  void set_generation_for_testing(std::uint32_t gen) {
    size_ = 0;
    restart_generations(gen == 0 ? 1 : gen);
  }

 private:
  void restart_generations(std::uint32_t gen) {
    for (Slot& s : slots_) s.gen = 0;
    gen_ = gen;
  }

  /// Double the array and re-place the live entries.  Slot i of the old
  /// array maps to slot i or i + old size of the new one, so no two live
  /// entries meet and none is lost.
  void grow() {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(2 * slots_.size(), Slot{}));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen == gen_) slots_[Hash{}(s.key) & mask] = s;
    }
    evictions_ = 0;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t evictions_ = 0;  // since the last resize
  std::uint32_t gen_ = 1;
};

}  // namespace qts::tdd
