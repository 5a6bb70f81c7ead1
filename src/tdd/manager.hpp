/// \file manager.hpp
/// The TDD manager: node storage, hash-consing, and all tensor operations.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/complex.hpp"
#include "common/execution_context.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "tdd/arena.hpp"
#include "tdd/flat_table.hpp"
#include "tdd/node.hpp"
#include "tdd/unique_table.hpp"

namespace qts::tdd {

/// How Manager::contract reads its operands and labels its result, applied
/// node by node as the walk goes instead of through a conjugated or renamed
/// copy.  The first three flags combine with `|`; kStateOut stands alone.
enum class OperandView : std::uint8_t {
  kPlain = 0,
  kConjLeft = 1,   ///< conjugate the left operand's weights
  kConjRight = 2,  ///< conjugate the right operand's weights
  kBraRight = 4,   ///< read the right operand's state_level(q) as bra_level(q)
  kStateOut = 8,   ///< build each result node at state_level(q) of its level's qubit
};

constexpr OperandView operator|(OperandView a, OperandView b) {
  return static_cast<OperandView>(static_cast<std::uint8_t>(a) | static_cast<std::uint8_t>(b));
}

/// True if `view` sets every flag of `flag`.
constexpr bool has(OperandView view, OperandView flag) {
  return (static_cast<std::uint8_t>(view) & static_cast<std::uint8_t>(flag)) ==
         static_cast<std::uint8_t>(flag);
}

/// Owns all nodes of a family of TDDs and provides the tensor operations of
/// the paper: addition, contraction, slicing, conjugation, scaling and
/// (order-preserving) index renaming.
///
/// Concurrency model (the Sylvan-style shared-manager design): canonical
/// node identity is GLOBAL — a sharded, independently locked unique table
/// over slab/arena node storage — while every piece of mutable per-thread
/// execution state (operation caches, allocation free-lists, statistics
/// sinks, deadline-tick counters) lives in a ThreadSlot.  The tensor
/// operations (make_node, add, contract, slice, conjugate, rename) are
/// therefore safe to call from many threads at once, PROVIDED each
/// concurrent thread has installed its own slot with a SlotGuard:
///
///   Manager mgr;
///   Manager::ThreadSlot& slot = mgr.create_slot(&worker_ctx);  // once
///   ...
///   {                                    // inside the worker thread
///     Manager::SlotGuard guard(slot);
///     mgr.add(a, b); mgr.contract(...);  // lock-free hot path, shared nodes
///   }
///
/// contract() also takes an OperandView, so ⟨a|b⟩, P·|u⟩ and |a⟩⟨b| are each
/// one walk over the stored diagrams: the view conjugates weights and moves a
/// ket's state levels to bra levels as the walk reads them, and no conjugated
/// or renamed copy is interned.  The bra view needs a right operand over
/// state levels only, as a ket is.  The state-out view relabels the result
/// instead: the last step of a circuit push (tn::push) builds the image
/// straight on the state levels, with no rename pass after it.
///
/// A thread with no installed slot uses the manager's built-in main slot, so
/// purely sequential code keeps the old single-threaded API unchanged — but
/// two guard-less threads would share that main slot, which is undefined.
///
/// Storage management (gc, clear_caches, storage_stats) and bind_context are
/// QUIESCENT-ONLY: callers must make sure no other thread is inside a
/// manager operation (the parallel engine's fork/join rounds provide exactly
/// this discipline — collections run between rounds on the caller's thread).
class Manager {
 private:
  // Operation-cache keys (per-thread caches; see ThreadSlot below).  Both
  // hash their nodes by arena id (NodeKeyHash::child), as the unique table
  // does, so which entries the lossy caches keep repeats from run to run.
  struct AddKey {
    const Node* a;
    const Node* b;
    cplx ratio;  // bucketed weight ratio w_b / w_a
    bool operator==(const AddKey&) const = default;
  };
  struct AddKeyHash {
    std::uint64_t operator()(const AddKey& k) const {
      std::uint64_t h = hash_step(NodeKeyHash::child(k.a), NodeKeyHash::child(k.b));
      h = hash_step(h, hash_word(k.ratio.real()));
      return hash_finish(hash_step(h, hash_word(k.ratio.imag())));
    }
  };
  struct ContKey {
    const Node* a;
    const Node* b;
    std::uint32_t suffix;  // interned id of the gamma suffix still to be summed out
    OperandView view;      // how the walk reads a and b (fills the padding)
    bool operator==(const ContKey&) const = default;
  };
  static_assert(sizeof(ContKey) == 2 * sizeof(void*) + 8, "the view must not grow ContKey");
  struct ContKeyHash {
    std::uint64_t operator()(const ContKey& k) const {
      const std::uint64_t tail = k.suffix | std::uint64_t{static_cast<std::uint8_t>(k.view)} << 32;
      const std::uint64_t h = hash_step(NodeKeyHash::child(k.a), NodeKeyHash::child(k.b));
      return hash_finish(hash_step(h, tail));
    }
  };
  /// One cell of an interned gamma suffix: its first level and the id of the
  /// rest.  Id 0 is the empty suffix; interned suffixes are numbered from 1.
  struct SuffixKey {
    Level head;
    std::uint32_t tail;
    bool operator==(const SuffixKey&) const = default;
  };
  struct SuffixKeyHash {
    std::uint64_t operator()(const SuffixKey& k) const {
      return hash_finish(hash_step(k.head, k.tail));
    }
  };
  using AddCache = ComputedTable<AddKey, Edge, AddKeyHash>;
  using ContCache = ComputedTable<ContKey, Edge, ContKeyHash>;
  using SuffixTable = FlatCache<SuffixKey, std::uint32_t, SuffixKeyHash>;

 public:
  /// Per-thread execution state: the add and contraction caches (hot
  /// lookups stay lock-free while node identity is global), the node
  /// free-list and bump-allocation block, the statistics sink, and the
  /// deadline-tick counter.  Created once per worker via create_slot (the
  /// manager owns it, addresses are stable), installed on the worker's
  /// thread with a SlotGuard for the duration of a round, and given back
  /// with release_slot when the worker is done for good.
  ///
  /// Both op caches are ComputedTables (flat_table.hpp): lossy, direct-mapped
  /// slot arrays that overwrite on collision, allocated on first use, grown
  /// while they churn up to a fixed cap, and kept across calls until gc() /
  /// clear_caches() release them.  The contraction cache is keyed on
  /// interned gamma suffixes (suffixes_), so calls over different gammas
  /// never collide and calls that share a suffix share entries; the suffix
  /// table is exact and is released only with the cache.
  class ThreadSlot {
   public:
    ThreadSlot(const ThreadSlot&) = delete;
    ThreadSlot& operator=(const ThreadSlot&) = delete;

   private:
    friend class Manager;
    friend class AuditAccess;  // quiescent-point op-cache/free-list audit
    ThreadSlot(Manager* owner, ExecutionContext* ctx) : owner_(owner), ctx_(ctx) {}

    /// Cooperative deadline poll: cheap counter, one real clock read every
    /// ~16k cache misses.
    void tick() {
      if (ctx_ != nullptr && (++ticks_ & 0x3FFF) == 0) ctx_->check_deadline();
    }
    [[nodiscard]] RunStats* stats() const { return ctx_ != nullptr ? &ctx_->stats() : nullptr; }
    void release_caches() {
      add_cache_.release();
      cont_cache_.release();
      suffixes_.release();
    }

    Manager* owner_;
    ExecutionContext* ctx_;
    std::vector<Node*> free_list_;
    NodeArena::Block* block_ = nullptr;
    std::size_t bump_ = 0;
    AddCache add_cache_;    // memo of add_norm
    ContCache cont_cache_;  // memo of cont_rec
    SuffixTable suffixes_;  // gamma suffix ids named by cont_cache_ keys
    std::vector<std::uint32_t> suffix_ids_;  // contract()'s per-call id of each gamma[pos..]
    std::uint64_t ticks_ = 0;
  };

  /// RAII installation of a slot on the calling thread.  Operations on the
  /// slot's manager between construction and destruction run through it;
  /// other managers are unaffected.  Nesting restores the previous slot.
  class SlotGuard {
   public:
    explicit SlotGuard(ThreadSlot& slot) : prev_(tl_slot_) { tl_slot_ = &slot; }
    ~SlotGuard() { tl_slot_ = prev_; }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;

   private:
    ThreadSlot* prev_;
  };

  Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// A worker slot reporting through `ctx` (nullable): the slot last given
  /// back by release_slot, with its free list and bump block, or else a new
  /// one.  Either way its op caches start empty.  Thread-safe; the slot lives
  /// as long as the manager.
  ThreadSlot& create_slot(ExecutionContext* ctx = nullptr);

  /// Give a create_slot slot back for reuse: its op caches are released and
  /// its context pointer cleared; its free list and bump block wait for the
  /// next create_slot.  Thread-safe; no thread may still have it installed.
  void release_slot(ThreadSlot& slot);

  // -- construction ---------------------------------------------------------

  /// Constant tensor (rank 0).
  [[nodiscard]] Edge terminal(const cplx& w) const {
    return approx_zero(w) ? Edge{} : Edge{nullptr, w};
  }
  [[nodiscard]] Edge zero() const { return Edge{}; }
  [[nodiscard]] Edge one() const { return Edge{nullptr, cplx{1.0, 0.0}}; }

  /// Canonicalising node constructor (see node.hpp for the invariants).
  Edge make_node(Level level, const Edge& low, const Edge& high);

  /// make_node for children already in canonical form, as tdd::save writes
  /// them: the pivot child (the one make_node would pick) has weight exactly
  /// 1 and the sibling is not near zero or near one unless exactly so.
  /// Such weights are interned bit for bit — make_node would divide them by
  /// the exact-1 pivot, which can flip the sign of a zero — so a reloaded
  /// diagram keeps every bit of the saved one.  Other input goes through
  /// make_node.  Returns a weight-1 edge in the canonical case.
  Edge make_stored_node(Level level, const Edge& low, const Edge& high);

  /// TDD of the single-variable tensor f(x) = (x == 0 ? w0 : w1).
  Edge literal(Level level, const cplx& w0, const cplx& w1) {
    return make_node(level, terminal(w0), terminal(w1));
  }

  // -- tensor operations ----------------------------------------------------

  /// Pointwise sum A + B (indices implicitly aligned by level).  The
  /// evaluation order is fixed by the caller's operand order — never by the
  /// operands' pool addresses, which are interleaving-dependent under the
  /// shared concurrent manager — so results are bit-for-bit reproducible
  /// whatever threads allocated the inputs.
  Edge add(const Edge& a, const Edge& b);

  /// Tensor contraction: multiply A and B pointwise over their shared
  /// variables and sum out the variables in `gamma` (sorted ascending by
  /// level).  Variables not in gamma that occur in both operands are treated
  /// as shared (hyperedge) indices and survive in the result.  A gamma
  /// variable occurring in neither operand contributes a factor 2, matching
  /// the tensor-network semantics of summing a constant over {0,1}.  A
  /// branch where either factor is the zero edge is zero and is never
  /// expanded, so applying an operator to a basis ket costs O(result), not
  /// O(operator).
  Edge contract(const Edge& a, const Edge& b, std::span<const Level> gamma);

  /// contract(a', b', gamma) where a' and b' are a and b read through
  /// `view`: conjugated (kConjLeft, kConjRight) and, under kBraRight, with
  /// b's state_level(q) read as bra_level(q).  Equal, up to the unique
  /// table's tolerance, to contracting conjugate() / rename() copies, but
  /// builds neither.  Precondition of kBraRight: b carries state levels only
  /// (a ket); checked on b's top level.  Under kStateOut the result equals
  /// rename(contract(a, b, gamma), map) for the map that sends each surviving
  /// level to state_level(level_qubit(level)).  Its precondition, which is
  /// not checked: at most one surviving level per qubit, as a push's last
  /// step keeps one output per wire.  Cache entries of different views never
  /// alias.
  Edge contract(const Edge& a, const Edge& b, std::span<const Level> gamma, OperandView view);

  /// Fix variable `var` to `value` (0 or 1) and drop it from the tensor.
  Edge slice(const Edge& a, Level var, int value);

  /// Componentwise complex conjugate.
  Edge conjugate(const Edge& a);

  /// Scalar multiple s * A.  The zero test is exact: a scalar of magnitude
  /// 2^{-n} is a legitimate global scale for a broad superposition, so
  /// tolerance-snapping here would corrupt wide-register states.
  Edge scale(const Edge& a, const cplx& s) {
    if (a.is_zero() || (s.real() == 0.0 && s.imag() == 0.0)) return zero();
    return Edge{a.node, a.weight * s};
  }

  /// Rename variables through a strictly monotone level map.  `map` holds
  /// (old, new) pairs sorted ascending by old level with ascending new
  /// levels; variables not mentioned keep their level (and must not be
  /// reordered across mapped ones — callers use disjoint ranges).  The
  /// library relabels through contract()'s views instead; the tests use
  /// rename as their independent oracle for those views.
  Edge rename(const Edge& a, std::span<const std::pair<Level, Level>> map);

  // -- storage management (quiescent points only) ---------------------------

  /// Bind the run-control spine of the MAIN slot (sequential callers).
  /// While bound, guard-less operations report cache counters into
  /// `ctx->stats()` and poll the context's deadline from deep inside long
  /// contractions/additions.  Worker slots carry their own context, given to
  /// create_slot.  Pass nullptr to unbind.
  void bind_context(ExecutionContext* ctx);
  [[nodiscard]] ExecutionContext* context() const { return ctx_; }

  /// Number of live (interned, not freed) nodes.
  [[nodiscard]] std::size_t live_nodes() const { return arena_.live(); }

  /// Total node slots ever constructed (monotone; diagnostic only).
  [[nodiscard]] std::size_t allocated_nodes() const { return arena_.constructed(); }

  /// Drop every slot's operation caches (automatically done by gc()).
  void clear_caches();

  /// Mark-and-sweep garbage collection: walk(roots) marks, every node it did
  /// not reach is recycled into the arena's global free pool, and the unique
  /// table is rebuilt from the survivors.  Quiescent points only.  A root of
  /// another manager (ids repeat across managers) throws InvalidArgument
  /// before anything is freed.  Returns the number of nodes freed.
  std::size_t gc(std::span<const Edge> roots);

  /// A stamp unique within the process to this manager and its current GC
  /// epoch: fresh at construction, redrawn by every gc(), never 0.  gc() is
  /// the only operation that frees published nodes, so edges taken while
  /// generation() had a given value stay valid while it keeps it — the
  /// result cache uses this to serve a memoised subspace without
  /// re-parsing it.  Read at quiescent points, like gc().
  [[nodiscard]] std::uint64_t generation() const { return gc_epoch_; }

  /// Storage observability: unique-table occupancy/load, arena shape and
  /// op-cache footprint.
  struct StorageStats {
    std::size_t table_nodes = 0;
    std::size_t table_slots = 0;  ///< allocated slots across all shards
    std::size_t table_shards = 0;
    double table_load_factor = 0.0;  ///< table_nodes / table_slots
    std::size_t arena_blocks = 0;
    std::size_t arena_capacity = 0;  ///< node slots across all blocks
    std::size_t live_nodes = 0;
    std::size_t allocated_nodes = 0;
    std::size_t op_slots = 0;  ///< ThreadSlots held, incl. main and released ones
    // The op caches are lossy (ComputedTable): an entry is live while a
    // lookup would find it, i.e. until a colliding insert overwrites it or
    // the cache is released.  Entries therefore never exceed slots.
    std::size_t add_cache_entries = 0;   ///< live add-cache entries, all slots
    std::size_t add_cache_bytes = 0;     ///< heap bytes the add caches' slot arrays hold
    std::size_t cont_cache_entries = 0;  ///< live contraction-cache entries, all slots
    std::size_t cont_cache_bytes = 0;    ///< heap bytes the contraction caches' slot
                                         ///< arrays and their suffix tables hold
  };
  [[nodiscard]] StorageStats storage_stats();

  /// Copy the unique table's entry count (storage_stats().table_nodes) into
  /// a RunStats block.
  void sample_storage(RunStats& stats);

 private:
  friend class AuditAccess;  // read-only walks + test-only corruption hooks

  /// The calling thread's slot: the SlotGuard-installed one if it belongs to
  /// this manager, the built-in main slot otherwise.
  [[nodiscard]] ThreadSlot& slot() const {
    ThreadSlot* s = tl_slot_;
    return (s != nullptr && s->owner_ == this) ? *s : *main_slot_;
  }

  const Node* intern(ThreadSlot& sl, Level level, const Edge& low, const Edge& high);

  /// Allocate-and-construct a node through `sl`: local free-list first, then
  /// the slot's bump block, refilling from the arena's global pools when both
  /// run dry.  (Lives on Manager, not ThreadSlot, because only Manager is a
  /// friend of Node.)
  Node* allocate_node(ThreadSlot& sl, Level level, const Edge& low, const Edge& high);
  /// Take back a node that lost an intern race (never published).
  void recycle_candidate(ThreadSlot& sl, Node* n);

  // Recursion helpers; see the .cpp files.
  Edge add_norm(ThreadSlot& sl, const Node* a, const Node* b, const cplx& ratio);
  template <OperandView View>
  Edge cont_rec(ThreadSlot& sl, const Node* a, const Node* b, std::span<const Level> gamma,
                std::size_t pos);

  static thread_local ThreadSlot* tl_slot_;

  NodeArena arena_;
  UniqueTable unique_;
  Mutex slots_mutex_;
  // Stable addresses; [0] is the main slot.  The deque itself is guarded;
  // each slot's *contents* are thread-private to the installing worker.
  std::deque<std::unique_ptr<ThreadSlot>> slots_ GUARDED_BY(slots_mutex_);
  std::vector<ThreadSlot*> released_ GUARDED_BY(slots_mutex_);  // reused first
  ThreadSlot* main_slot_;
  // generation(): drawn from one process-wide counter at construction and
  // by every gc(), so no two managers (and no two collections of one) share
  // a value; never 0.
  std::uint64_t gc_epoch_;
  ExecutionContext* ctx_ = nullptr;
};

/// The kernel's one visit mark: marks every non-terminal node reachable from
/// `roots` (all of one manager: ids repeat across managers) in the calling
/// thread's stamps, indexed by Node::id(), and returns how many it reached.
/// Walks on different threads share nothing.
std::size_t walk(std::span<const Edge> roots);

/// True iff the calling thread's last walk() reached `n`.  gc()'s sweep and
/// the auditor read their marks through it, and each checks that it found as
/// many marked nodes as its walk reached.
bool walked(const Node& n);

/// Number of non-terminal nodes reachable from `root` (the paper's "#node"):
/// walk() of that one root.
std::size_t node_count(const Edge& root);

/// Record the size of `e` as a peak-node candidate on `ctx` (null-safe).
inline void record_peak(ExecutionContext* ctx, const Edge& e) {
  if (ctx != nullptr) ctx->record_peak(node_count(e));
}

/// True if the two edges denote approximately the same tensor.  Thanks to
/// hash-consing this is pointer equality plus a weight comparison.
inline bool same_tensor(const Edge& a, const Edge& b, double eps = kEps) {
  return a.approx(b, eps);
}

}  // namespace qts::tdd
