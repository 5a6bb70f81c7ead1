/// \file unique_table.hpp
/// The sharded hash-consing table of the shared concurrent TDD manager.
///
/// Canonical node identity is global: every thread interning the same
/// (level, children, bucketed weights) key must observe the same Node*.  The
/// table is split into kShards independently locked shards selected by the
/// low bits of the key hash, so concurrent make_node calls on different keys
/// rarely meet.  Each shard is guarded by a tiny test-and-set spinlock: the
/// critical sections are a few slot probes, uncontended acquisition is two
/// atomic operations (cheaper than a pthread mutex on the hot intern path),
/// and acquire/release ordering publishes freshly constructed nodes to every
/// thread that later finds them.
///
/// A shard is a flat open-addressing array of 16-byte {hash, Node*} slots
/// (linear probing, load <= 1/2, the standard decision-diagram package
/// layout), indexed by the hash bits above the shard bits.  No key is
/// stored: a probe matches when the stored hash is equal and the node's own
/// level, children and bucketed weights equal the key's.  A shard allocates
/// nothing until its first insert and doubles when half full.
///
/// The insert protocol is allocate-then-publish: a missing key is
/// constructed *outside* the lock and offered with insert(); losing the race
/// to a concurrent identical intern returns the winner so the caller can
/// recycle its candidate.  clear() and the GC rebuild serve quiescent
/// points; they still take the shard locks — uncontended spinlock
/// acquisition is two atomic ops, and holding the capability keeps the
/// thread-safety analysis honest instead of opting the GC out of it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/complex.hpp"
#include "common/thread_annotations.hpp"
#include "tdd/flat_table.hpp"
#include "tdd/node.hpp"

namespace qts::tdd {

class AuditAccess;

/// Identity of a canonical node: level, child nodes, and the children's
/// weights snapped onto the kEps grid (hashing tolerance-compatible weights
/// is the standard DD-package compromise, see complex.hpp).  A lookup key
/// only: the table stores the hash and the node, never the key.
struct NodeKey {
  Level level;
  const Node* low;
  const Node* high;
  cplx w_low;   // bucketed
  cplx w_high;  // bucketed
  bool operator==(const NodeKey&) const = default;

  /// The key of an interned node, recomputed from its fields.
  [[nodiscard]] static NodeKey of(const Node& n) {
    return {n.level(), n.low().node, n.high().node, bucketed(n.low().weight),
            bucketed(n.high().weight)};
  }
};

/// Children hash by arena id (a null child as ~0), not address, so slot
/// placement repeats from run to run.  Matching still compares pointers.
struct NodeKeyHash {
  static std::uint64_t child(const Node* n) { return n == nullptr ? ~std::uint64_t{0} : n->id(); }
  std::uint64_t operator()(const NodeKey& k) const {
    std::uint64_t h = hash_step(static_cast<std::uint64_t>(k.level), child(k.low));
    h = hash_step(h, child(k.high));
    h = hash_step(h, hash_word(k.w_low.real()));
    h = hash_step(h, hash_word(k.w_low.imag()));
    h = hash_step(h, hash_word(k.w_high.real()));
    h = hash_step(h, hash_word(k.w_high.imag()));
    return hash_finish(h);
  }
};

/// Minimal test-and-set spinlock.  Shard critical sections are a few slot
/// probes long, so spinning (with a yield for the oversubscribed case) beats
/// parking the thread.  Annotated as a capability so `-Wthread-safety`
/// statically checks the data it guards.
class CAPABILITY("spinlock") SpinLock {
 public:
  void lock() ACQUIRE() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void unlock() RELEASE() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// RAII guard for SpinLock, tracked by the thread-safety analysis.
class SCOPED_CAPABILITY SpinGuard {
 public:
  explicit SpinGuard(SpinLock& lock) ACQUIRE(lock) : lock_(lock) { lock_.lock(); }
  ~SpinGuard() RELEASE() { lock_.unlock(); }

  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

 private:
  SpinLock& lock_;
};

class UniqueTable {
 public:
  static constexpr std::size_t kShards = 64;  // power of two
  static constexpr unsigned kShardBits = 6;   // log2(kShards)
  static_assert(kShards == std::size_t{1} << kShardBits);

  UniqueTable() = default;
  UniqueTable(const UniqueTable&) = delete;
  UniqueTable& operator=(const UniqueTable&) = delete;

  [[nodiscard]] static std::size_t shard_of(std::uint64_t hash) { return hash & (kShards - 1); }

  /// The node interned under `key`, or nullptr.  `hash` must be
  /// NodeKeyHash{}(key).
  [[nodiscard]] const Node* find(const NodeKey& key, std::uint64_t hash) {
    Shard& shard = shards_[shard_of(hash)];
    const SpinGuard guard(shard.lock);
    return shard.table.find(key, hash);
  }

  /// Publish `candidate` under `key`; returns the winning node — `candidate`
  /// itself, or the node a concurrent intern published first (then
  /// `*inserted` is false and the caller recycles its candidate).
  const Node* insert(const NodeKey& key, std::uint64_t hash, Node* candidate, bool* inserted) {
    Shard& shard = shards_[shard_of(hash)];
    const SpinGuard guard(shard.lock);
    const Node* winner = shard.table.insert(key, hash, candidate);
    *inserted = (winner == candidate);
    return winner;
  }

  /// Drop every entry, keeping each shard's slot array.  Quiescent points
  /// only (GC).
  void clear();

  /// Re-intern a surviving node during the GC rebuild.  Quiescent points
  /// only; no race handling needed, but the shard lock is still taken.
  void rebuild_insert(Node* node);

  struct Stats {
    std::size_t nodes = 0;        ///< interned entries across all shards
    std::size_t slots = 0;        ///< allocated slots across all shards
    std::size_t shards = kShards;
    double load_factor = 0.0;     ///< nodes / slots (occupied over allocated)
  };
  /// Sizes are read per shard under its lock, so this is safe any time; the
  /// result is a consistent-enough gauge, not a snapshot.
  [[nodiscard]] Stats stats();

  /// Visit every (shard index, stored hash, node) entry, shard by shard
  /// under each shard's lock.  Serves the structural auditor; the visitor
  /// must not re-enter the table.
  template <typename F>
  void for_each_entry(F&& f) {
    for (std::size_t s = 0; s < kShards; ++s) {
      Shard& shard = shards_[s];
      const SpinGuard guard(shard.lock);
      shard.table.for_each([&](std::uint64_t hash, const Node* node) { f(s, hash, node); });
    }
  }

 private:
  friend class AuditAccess;  // corruption API for the auditor's own tests

  /// One shard's open-addressing array.  Not thread-safe by itself: every
  /// use goes through the owning Shard's lock.
  class ShardTable {
   public:
    [[nodiscard]] const Node* find(const NodeKey& key, std::uint64_t hash) const {
      if (slots_.empty()) return nullptr;
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = (hash >> kShardBits) & mask;; i = (i + 1) & mask) {
        const Slot& s = slots_[i];
        if (s.node == nullptr) return nullptr;
        if (s.hash == hash && matches(*s.node, key)) return s.node;
      }
    }

    /// The node already interned under `key`, or `node` after storing it.
    Node* insert(const NodeKey& key, std::uint64_t hash, Node* node) {
      if (2 * (count_ + 1) > slots_.size()) grow();
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = (hash >> kShardBits) & mask;
      for (; slots_[i].node != nullptr; i = (i + 1) & mask) {
        if (slots_[i].hash == hash && matches(*slots_[i].node, key)) return slots_[i].node;
      }
      slots_[i] = Slot{hash, node};
      ++count_;
      return node;
    }

    /// Store (hash, node) without looking for an equal key.  The auditor's
    /// corruption hooks use it to plant entries a real insert never would.
    void place(std::uint64_t hash, Node* node) {
      if (2 * (count_ + 1) > slots_.size()) grow();
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = (hash >> kShardBits) & mask;
      while (slots_[i].node != nullptr) i = (i + 1) & mask;
      slots_[i] = Slot{hash, node};
      ++count_;
    }

    /// Remove the entry holding `node` (hooks only); returns its hash.
    std::uint64_t erase(const Node* node);

    void clear() {
      std::fill(slots_.begin(), slots_.end(), Slot{});
      count_ = 0;
    }

    template <typename F>
    void for_each(F&& f) const {
      for (const Slot& s : slots_) {
        if (s.node != nullptr) f(s.hash, s.node);
      }
    }

    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

   private:
    struct Slot {
      std::uint64_t hash = 0;
      Node* node = nullptr;  // nullptr: empty
    };
    static constexpr std::size_t kMinSlots = 64;  // power of two

    [[nodiscard]] static bool matches(const Node& n, const NodeKey& key) {
      return n.level() == key.level && n.low().node == key.low && n.high().node == key.high &&
             bucketed(n.low().weight) == key.w_low && bucketed(n.high().weight) == key.w_high;
    }

    void grow();

    std::vector<Slot> slots_;
    std::size_t count_ = 0;
  };

  struct alignas(64) Shard {  // one cache line per lock: no false sharing
    SpinLock lock;
    ShardTable table GUARDED_BY(lock);
  };
  std::array<Shard, kShards> shards_;
};

}  // namespace qts::tdd
