/// \file arena.hpp
/// Slab/arena storage for TDD nodes.
///
/// Nodes used to be heap-allocated one deque slot at a time inside the
/// Manager; the shared concurrent manager replaces that with fixed-size
/// blocks handed out whole to threads.  A thread bump-allocates from its
/// current block without any synchronisation, so the only contended
/// operations are the rare block acquisition and the batched refill from the
/// global free pool (both behind one mutex).  Garbage collection — which
/// runs only at quiescent points, with no concurrent mutators — sweeps dead
/// nodes back into the global pool.
///
/// Thread-safety summary:
///   * acquire_block / refill / recycle: safe from any thread;
///   * for_each_constructed and the Block::used prefix counters: quiescent
///     points only (callers establish the happens-before edge by joining the
///     worker threads first — the fork/join discipline of the parallel
///     engine);
///   * live / constructed / capacity counters: atomic, readable any time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "tdd/node.hpp"

namespace qts::tdd {

class NodeArena {
 public:
  /// Nodes per slab block: 4,096 × 64 B = 256 KB of node storage per block.
  static constexpr std::size_t kBlockNodes = std::size_t{1} << 12;

  /// One slab.  `used` counts the placement-new-constructed prefix of
  /// `storage`; it is written only by the thread the block is currently
  /// handed out to and read by the sweeping thread at quiescence.  The node
  /// in slot i gets the arena id first_id + i, so ids are dense across
  /// blocks: block ordinal × kBlockNodes + slot.
  struct Block {
    alignas(Node) std::byte storage[sizeof(Node) * kBlockNodes];
    std::size_t used = 0;
    std::uint32_t first_id = 0;

    [[nodiscard]] Node* nodes() { return reinterpret_cast<Node*>(storage); }
    [[nodiscard]] const Node* nodes() const { return reinterpret_cast<const Node*>(storage); }
  };

  NodeArena() = default;
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  /// Hand a fresh block to the calling thread; the block is owned by the
  /// arena but bump-filled exclusively by that thread until exhausted.
  /// Throws ResourceExhausted(kMemory) when the block's node ids would pass
  /// 2^32 (see first_id_of).
  Block* acquire_block();

  /// Blocks an arena can hand out before node ids pass 2^32 (about 300 GB
  /// of nodes).
  static constexpr std::size_t kMaxBlocks = (std::size_t{1} << 32) / kBlockNodes;

  /// The first node id of the block with this ordinal (ordinal ×
  /// kBlockNodes); throws ResourceExhausted(kMemory) from ordinal kMaxBlocks
  /// on.
  static std::uint32_t first_id_of(std::size_t ordinal);

  /// Move up to `want` recycled nodes from the global free pool into `out`.
  /// Returns how many were moved (0 when the pool is dry).
  std::size_t refill(std::vector<Node*>& out, std::size_t want);

  /// Return a batch of freed nodes to the global pool (the GC sweep).
  void recycle(std::vector<Node*>&& batch);

  // -- counters (atomic; the callers below keep them honest) -----------------

  /// A node was placement-new constructed (bump allocation).
  void note_constructed() { constructed_.fetch_add(1, std::memory_order_relaxed); }
  /// A node became live (interned) / stopped being live (freed).
  void note_live(std::ptrdiff_t delta) {
    // Unsigned wrap-around makes fetch_add(-1) a correct decrement.
    live_.fetch_add(static_cast<std::size_t>(delta), std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t live() const { return live_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::size_t constructed() const {
    return constructed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t blocks() const;
  [[nodiscard]] std::size_t capacity() const { return blocks() * kBlockNodes; }
  [[nodiscard]] std::size_t free_pool() const;

  /// Visit every constructed node (the `used` prefix of every block).
  /// Quiescent points only.
  template <typename F>
  void for_each_constructed(F&& f) {
    const MutexLock lock(mutex_);
    for (const auto& block : blocks_) {
      Node* nodes = block->nodes();
      for (std::size_t i = 0; i < block->used; ++i) f(nodes[i]);
    }
  }

  /// Visit every node currently parked in the global free pool (the
  /// auditor's free-list-reachability check).  Quiescent points only.
  template <typename F>
  void for_each_free(F&& f) {
    const MutexLock lock(mutex_);
    for (const Node* node : free_) f(*node);
  }

 private:
  mutable Mutex mutex_;
  std::deque<std::unique_ptr<Block>> blocks_ GUARDED_BY(mutex_);
  // Global recycled-node pool (GC sweep output).
  std::vector<Node*> free_ GUARDED_BY(mutex_);
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> constructed_{0};
};

}  // namespace qts::tdd
