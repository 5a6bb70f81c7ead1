#include "tdd/manager.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <new>
#include <vector>

#include "common/error.hpp"

namespace qts::tdd {

thread_local Manager::ThreadSlot* Manager::tl_slot_ = nullptr;

namespace {
/// Nodes pulled from the arena's global free pool per refill.  Big enough to
/// amortise the pool mutex, small enough not to strand recycled nodes on an
/// idle thread.
constexpr std::size_t kRefillBatch = 64;

/// Source of every manager's gc_epoch_; starts at 1, so 0 is never drawn.
std::atomic<std::uint64_t> g_next_epoch{1};

std::uint64_t draw_epoch() { return g_next_epoch.fetch_add(1, std::memory_order_relaxed); }

// The calling thread's visit marks: tl_stamps[id] == tl_epoch iff the
// thread's last walk() reached the node with arena id `id`.
thread_local std::vector<std::uint32_t> tl_stamps;
thread_local std::uint32_t tl_epoch = 0;
thread_local std::vector<const Node*> tl_stack;
}  // namespace

Manager::Manager() : gc_epoch_(draw_epoch()) {
  // Constructors run pre-publication; the thread-safety analysis exempts
  // them, and no other thread can hold a reference yet.
  slots_.push_back(std::unique_ptr<ThreadSlot>(new ThreadSlot(this, nullptr)));
  main_slot_ = slots_.front().get();
}

Manager::ThreadSlot& Manager::create_slot(ExecutionContext* ctx) {
  const MutexLock lock(slots_mutex_);
  if (released_.empty()) {
    slots_.push_back(std::unique_ptr<ThreadSlot>(new ThreadSlot(this, ctx)));
    return *slots_.back();
  }
  ThreadSlot& sl = *released_.back();
  released_.pop_back();
  sl.ctx_ = ctx;
  return sl;
}

void Manager::release_slot(ThreadSlot& sl) {
  const MutexLock lock(slots_mutex_);
  sl.release_caches();
  sl.ctx_ = nullptr;
  sl.ticks_ = 0;  // polls the next owner's deadline on a fresh slot's schedule
  released_.push_back(&sl);
}

Node* Manager::allocate_node(ThreadSlot& sl, Level level, const Edge& low, const Edge& high) {
  Node* n;
  try {
    // Budget gate + fault probe run BEFORE any storage is touched, so a
    // ResourceExhausted throw leaves the arena accounting untouched and the
    // caller's diagram graph still consistent (the node was never
    // published).  Injected `alloc@...` faults raise bad_alloc here and
    // take the same translation path as a real slab failure below.
    if (sl.ctx_ != nullptr) sl.ctx_->check_node_budget(arena_.live());
    if (sl.free_list_.empty()) arena_.refill(sl.free_list_, kRefillBatch);
    if (!sl.free_list_.empty()) {
      n = sl.free_list_.back();
      sl.free_list_.pop_back();
      // Assignment resets freed_; the slot keeps its id.
      *n = Node(level, low, high, n->id_);
    } else {
      if (sl.block_ == nullptr || sl.bump_ == NodeArena::kBlockNodes) {
        sl.block_ = arena_.acquire_block();
        sl.bump_ = 0;
      }
      const auto id = static_cast<std::uint32_t>(sl.block_->first_id + sl.bump_);
      n = new (sl.block_->nodes() + sl.bump_) Node(level, low, high, id);
      sl.block_->used = ++sl.bump_;
      arena_.note_constructed();
    }
  } catch (const std::bad_alloc&) {
    // The slab boundary: a real (or injected) allocation failure surfaces
    // as a recoverable budget error instead of an unhandled bad_alloc, so
    // fallback chains can degrade to a leaner representation.
    throw ResourceExhausted(Resource::kMemory,
                            "TDD node arena: slab allocation failed (out of memory) with " +
                                std::to_string(arena_.live()) + " live nodes");
  }
  arena_.note_live(1);
  return n;
}

void Manager::recycle_candidate(ThreadSlot& sl, Node* n) {
  n->freed_ = true;  // the GC sweep must not free it a second time
  sl.free_list_.push_back(n);
  arena_.note_live(-1);
}

const Node* Manager::intern(ThreadSlot& sl, Level level, const Edge& low, const Edge& high) {
  const NodeKey key{level, low.node, high.node, bucketed(low.weight), bucketed(high.weight)};
  const std::uint64_t hash = NodeKeyHash{}(key);
  if (const Node* hit = unique_.find(key, hash); hit != nullptr) {
    if (RunStats* st = sl.stats()) ++st->unique_hits;
    return hit;
  }
  if (RunStats* st = sl.stats()) ++st->unique_misses;
  // Allocate-then-publish: build the candidate outside any lock, offer it to
  // the table, and recycle it if a concurrent identical intern won the race.
  Node* candidate = allocate_node(sl, level, low, high);
  bool inserted = false;
  const Node* winner = unique_.insert(key, hash, candidate, &inserted);
  if (!inserted) recycle_candidate(sl, candidate);
  return winner;
}

Edge Manager::make_node(Level level, const Edge& low, const Edge& high) {
  require(low.top_level() > level && high.top_level() > level,
          "make_node children must sit strictly below the new level");

  Edge lo = low;
  Edge hi = high;

  // Zero-weight edges are stored as the canonical zero edge.
  if (approx_zero(lo.weight)) lo = Edge{};
  if (approx_zero(hi.weight)) hi = Edge{};

  if (lo.is_zero() && hi.is_zero()) return Edge{};

  // Redundant-node elimination: tensor independent of this variable.
  if (lo.node == hi.node && approx_equal(lo.weight, hi.weight)) return lo;

  // Normalise by the maximum-magnitude weight, ties towards the low edge.
  // The tie test is relative so the choice is stable under a global rescale
  // of the tensor.
  const double a0 = std::abs(lo.weight);
  const double a1 = std::abs(hi.weight);
  const cplx pivot = (a0 >= a1 * (1.0 - 1e-9)) ? lo.weight : hi.weight;
  lo.weight /= pivot;
  hi.weight /= pivot;
  // Cull relative noise and snap the pivot to exactly 1 for stable hashing.
  if (approx_zero(lo.weight)) lo = Edge{};
  if (approx_zero(hi.weight)) hi = Edge{};
  if (approx_one(lo.weight)) lo.weight = cplx{1.0, 0.0};
  if (approx_one(hi.weight)) hi.weight = cplx{1.0, 0.0};

  // Renormalisation may have made the children equal after snapping.
  if (lo.node == hi.node && approx_equal(lo.weight, hi.weight)) {
    return Edge{lo.node, lo.weight * pivot};
  }

  return Edge{intern(slot(), level, lo, hi), pivot};
}

Edge Manager::make_stored_node(Level level, const Edge& low, const Edge& high) {
  const auto exactly_one = [](const cplx& w) {
    return w.real() == 1.0 && w.imag() == 0.0 && !std::signbit(w.imag());
  };
  // The sibling as make_node leaves it: the zero edge, exactly one, or a
  // weight neither of its snaps would touch.
  const auto settled = [&](const Edge& e) {
    return e.is_zero() || exactly_one(e.weight) || (!approx_zero(e.weight) && !approx_one(e.weight));
  };
  const bool low_pivot = std::abs(low.weight) >= std::abs(high.weight) * (1.0 - 1e-9);
  const Edge& pivot = low_pivot ? low : high;
  const Edge& sibling = low_pivot ? high : low;
  const bool canonical = low.top_level() > level && high.top_level() > level &&
                         exactly_one(pivot.weight) && settled(sibling) &&
                         !(low.node == high.node && approx_equal(low.weight, high.weight));
  if (!canonical) return make_node(level, low, high);
  return Edge{intern(slot(), level, low, high), cplx{1.0, 0.0}};
}

namespace {

/// Child of `n` under variable `var` taking `value`, for a weight-1 view of
/// the node.  If the node does not test `var` (its level is deeper), the
/// tensor is independent of `var` and the slice is the node itself.
Edge slice_top(const Node* n, Level var, int value) {
  if (n == nullptr || n->level() > var) return Edge{n, cplx{1.0, 0.0}};
  return n->child(value);
}

}  // namespace

Edge Manager::add(const Edge& a, const Edge& b) {
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  if (a.node == b.node) {
    const cplx w = a.weight + b.weight;
    // Relative cancellation test: the operands may carry a legitimately tiny
    // global scale (e.g. 2^{-n/2} for broad superpositions), so zero must be
    // judged against the operand magnitudes, not in absolute terms.
    const double scale_mag = std::max(std::abs(a.weight), std::abs(b.weight));
    return (std::abs(w) <= kEps * scale_mag) ? zero() : Edge{a.node, w};
  }
  // Factor the weights out so the cache works on weight-1 operands:
  //   a + b = w_a * (A' + (w_b / w_a) B').
  // The operands are NOT reordered by pool address (the classic commutative
  // cache trick): under the shared concurrent manager, addresses depend on
  // which thread allocated first, and wa*(A' + (wb/wa)B') differs from
  // wb*(B' + (wa/wb)A') in the last ulps.  Caller order is deterministic;
  // addresses are not.
  ThreadSlot& sl = slot();
  const cplx ratio = b.weight / a.weight;
  Edge r = add_norm(sl, a.node, b.node, ratio);
  return scale(r, a.weight);
}

Edge Manager::add_norm(ThreadSlot& sl, const Node* a, const Node* b, const cplx& ratio) {
  // Precondition: not both terminal with a == b (handled by add()).
  if (a == nullptr && b == nullptr) {
    const cplx w = cplx{1.0, 0.0} + ratio;
    return terminal(w);
  }
  const AddKey key{a, b, bucketed(ratio)};
  if (const Edge* hit = sl.add_cache_.find(key)) {
    if (RunStats* st = sl.stats()) ++st->add_hits;
    return *hit;
  }
  if (RunStats* st = sl.stats()) ++st->add_misses;
  sl.tick();

  const Level la = (a == nullptr) ? kTermLevel : a->level();
  const Level lb = (b == nullptr) ? kTermLevel : b->level();
  const Level x = la < lb ? la : lb;

  Edge result;
  {
    const Edge a0 = slice_top(a, x, 0);
    const Edge a1 = slice_top(a, x, 1);
    const Edge b0 = slice_top(b, x, 0);
    const Edge b1 = slice_top(b, x, 1);
    const Edge r0 = add(a0, scale(b0, ratio));
    const Edge r1 = add(a1, scale(b1, ratio));
    result = make_node(x, r0, r1);
  }
  sl.add_cache_.insert(key, result);
  return result;
}

void Manager::bind_context(ExecutionContext* ctx) {
  ctx_ = ctx;
  main_slot_->ctx_ = ctx;
}

void Manager::clear_caches() {
  const MutexLock lock(slots_mutex_);
  for (auto& sl : slots_) sl->release_caches();
}

std::size_t Manager::gc(std::span<const Edge> roots) {
  // Quiescent point: no concurrent mutators (the caller joined its workers).
  // Ids repeat across managers, so a foreign root would mark this manager's
  // nodes that share its ids: refuse one before anything changes.
  for (const Edge& r : roots) {
    if (r.node == nullptr) continue;
    const NodeKey key = NodeKey::of(*r.node);
    require(unique_.find(key, NodeKeyHash{}(key)) == r.node,
            "gc: a root is not a node of this manager");
  }
  if (ctx_ != nullptr) ++ctx_->stats().gc_runs;
  gc_epoch_ = draw_epoch();
  // The mark: the sweep reads it through walked(), so no other walk may run
  // on this thread before the sweep ends.
  const std::size_t reached = walk(roots);

  clear_caches();
  unique_.clear();

  std::vector<Node*> dead;
  arena_.for_each_constructed([&](Node& n) {
    if (n.freed_) return;  // already on a free list (GC pool or a thread's)
    if (walked(n)) {
      unique_.rebuild_insert(&n);
    } else {
      n.freed_ = true;
      dead.push_back(&n);
    }
  });
  const std::size_t freed = dead.size();
  arena_.recycle(std::move(dead));
  arena_.note_live(-static_cast<std::ptrdiff_t>(freed));
  // The survivors are exactly the reached nodes, unless another walk
  // replaced the marks before the sweep.
  if (arena_.live() != reached) throw InternalError("gc: the sweep read another walk's marks");
  return freed;
}

Manager::StorageStats Manager::storage_stats() {
  const UniqueTable::Stats t = unique_.stats();
  StorageStats s;
  s.table_nodes = t.nodes;
  s.table_slots = t.slots;
  s.table_shards = t.shards;
  s.table_load_factor = t.load_factor;
  s.arena_blocks = arena_.blocks();
  s.arena_capacity = arena_.capacity();
  s.live_nodes = arena_.live();
  s.allocated_nodes = arena_.constructed();
  {
    const MutexLock lock(slots_mutex_);
    s.op_slots = slots_.size();
    for (const auto& sl : slots_) {
      s.add_cache_entries += sl->add_cache_.size();
      s.add_cache_bytes += sl->add_cache_.bytes();
      s.cont_cache_entries += sl->cont_cache_.size();
      s.cont_cache_bytes += sl->cont_cache_.bytes() + sl->suffixes_.bytes();
    }
  }
  return s;
}

void Manager::sample_storage(RunStats& stats) { stats.table_nodes = unique_.stats().nodes; }

std::size_t walk(std::span<const Edge> roots) {
  // This runs after every contraction-plan step, every term add and every
  // fixpoint iteration's projector, so it is hot.  Visits are marked in a
  // per-thread array of epoch stamps indexed by arena id: no hashing, no
  // lock, and no allocation once the array covers the ids seen.  A node is
  // new to this walk when its stamp is not the walk's epoch.
  if (++tl_epoch == 0) {  // wrapped: stale stamps could equal the new epoch
    std::fill(tl_stamps.begin(), tl_stamps.end(), 0);
    tl_epoch = 1;
  }
  // Local handles, so the loop computes no thread-local address per node.
  std::vector<std::uint32_t>& stamps = tl_stamps;
  std::vector<const Node*>& stack = tl_stack;
  const std::uint32_t epoch = tl_epoch;
  std::size_t count = 0;
  const auto visit = [&stamps, &stack, &count, epoch](const Node* n) {
    if (n == nullptr) return;
    const std::uint32_t id = n->id();
    if (id >= stamps.size()) stamps.resize(std::bit_ceil(std::size_t{id} + 1), 0);
    if (stamps[id] == epoch) return;
    stamps[id] = epoch;
    ++count;
    stack.push_back(n);
  };
  stack.clear();
  for (const Edge& r : roots) visit(r.node);
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    visit(n->low().node);
    visit(n->high().node);
  }
  return count;
}

bool walked(const Node& n) {
  const std::uint32_t id = n.id();
  return id < tl_stamps.size() && tl_stamps[id] == tl_epoch;
}

std::size_t node_count(const Edge& root) { return walk({&root, 1}); }

}  // namespace qts::tdd
