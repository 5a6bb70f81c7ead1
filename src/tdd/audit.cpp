#include "tdd/audit.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/complex.hpp"
#include "common/mutex.hpp"
#include "tdd/flat_table.hpp"
#include "tdd/unique_table.hpp"

namespace qts::tdd {

/// The auditor's keyhole into the manager internals.  Everything here is
/// quiescent-point-only read access, except the corrupt_* helpers at the
/// bottom, which deliberately break a throwaway manager for the tests.
class AuditAccess {
 public:
  static UniqueTable& table(Manager& mgr) { return mgr.unique_; }
  static NodeArena& arena(Manager& mgr) { return mgr.arena_; }
  static bool freed(const Node& n) { return n.freed_; }

  /// Visit every ThreadSlot under the slots mutex (quiescent points only —
  /// the slots' contents are otherwise thread-private to their workers).
  template <typename F>
  static void for_each_slot(Manager& mgr, F&& f) {
    const MutexLock lock(mgr.slots_mutex_);
    for (const auto& slot : mgr.slots_) f(*slot);
  }

  template <typename F>
  static void for_each_add_entry(const Manager::ThreadSlot& sl, F&& f) {
    sl.add_cache_.for_each([&](const Manager::AddKey& key, const Edge& value) {
      f(key.a, key.b, value);
    });
  }
  template <typename F>
  static void for_each_cont_entry(const Manager::ThreadSlot& sl, F&& f) {
    sl.cont_cache_.for_each([&](const Manager::ContKey& key, const Edge& value) {
      f(key.a, key.b, value);
    });
  }
  template <typename F>
  static void for_each_slot_free(const Manager::ThreadSlot& sl, F&& f) {
    for (const Node* n : sl.free_list_) f(*n);
  }

  // -- corruption hooks (tests only) ----------------------------------------

  /// Allocate a node through the main slot and intern it under its correct
  /// key, bypassing make_node's canonicalisation entirely.
  static const Node* raw_intern(Manager& mgr, Level level, const Edge& lo, const Edge& hi) {
    Manager::ThreadSlot& sl = mgr.slot();
    Node* n = mgr.allocate_node(sl, level, lo, hi);
    const NodeKey key = NodeKey::of(*n);
    bool inserted = false;
    mgr.unique_.insert(key, NodeKeyHash{}(key), n, &inserted);
    return n;
  }

  /// Take the first entry of the first non-empty shard out of that shard;
  /// returns its shard, or kShards when the table is empty.
  static std::size_t take_first_entry(UniqueTable& table, std::uint64_t* hash, Node** node) {
    for (std::size_t s = 0; s < UniqueTable::kShards; ++s) {
      UniqueTable::Shard& shard = table.shards_[s];
      const SpinGuard guard(shard.lock);
      if (shard.table.size() == 0) continue;
      shard.table.for_each([&](std::uint64_t, Node* n) {
        if (*node == nullptr) *node = n;
      });
      *hash = shard.table.erase(*node);
      return s;
    }
    return UniqueTable::kShards;
  }

  /// Move the first table entry found into the next shard over, keeping its
  /// stored hash.  The target shard may never have been allocated.
  static bool misplace_entry(Manager& mgr) {
    UniqueTable& table = mgr.unique_;
    std::uint64_t hash = 0;
    Node* node = nullptr;
    const std::size_t s = take_first_entry(table, &hash, &node);
    if (s == UniqueTable::kShards) return false;
    UniqueTable::Shard& wrong = table.shards_[(s + 1) % UniqueTable::kShards];
    const SpinGuard guard(wrong.lock);
    wrong.table.place(hash, node);
    return true;
  }

  /// Re-store the first table entry found under a different hash that
  /// still selects the same shard.
  static bool rehash_entry(Manager& mgr) {
    UniqueTable& table = mgr.unique_;
    std::uint64_t hash = 0;
    Node* node = nullptr;
    const std::size_t s = take_first_entry(table, &hash, &node);
    if (s == UniqueTable::kShards) return false;
    UniqueTable::Shard& shard = table.shards_[s];
    const SpinGuard guard(shard.lock);
    shard.table.place(hash ^ (std::uint64_t{1} << UniqueTable::kShardBits), node);
    return true;
  }

  // Deliberate corruption of a node reached through a const Edge: the hook
  // exists precisely to violate the structure's contracts.
  static void flag_freed(const Node* n) { const_cast<Node*>(n)->freed_ = true; }
};

const char* to_string(AuditCheck check) {
  switch (check) {
    case AuditCheck::kLevelOrder: return "level-order";
    case AuditCheck::kRedundantNode: return "redundant-node";
    case AuditCheck::kWeightNorm: return "weight-norm";
    case AuditCheck::kResidency: return "residency";
    case AuditCheck::kShardPlacement: return "shard-placement";
    case AuditCheck::kHashConsistency: return "hash-consistency";
    case AuditCheck::kFreedReachable: return "freed-reachable";
    case AuditCheck::kCounts: return "counts";
    case AuditCheck::kOpCache: return "op-cache";
  }
  return "unknown";
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  if (clean()) {
    os << "clean (" << interned_nodes << " interned, " << reachable_nodes << " reachable, "
       << roots << " roots)";
    return os.str();
  }
  os << failures.size() << " failure" << (failures.size() == 1 ? "" : "s");
  const char* sep = ": ";
  // Name each violated class once; the per-failure details live in the list.
  std::vector<bool> named(16, false);
  for (const AuditFailure& f : failures) {
    const auto idx = static_cast<std::size_t>(f.check);
    if (idx < named.size() && !named[idx]) {
      named[idx] = true;
      os << sep << to_string(f.check);
      sep = ", ";
    }
  }
  return os.str();
}

namespace {

/// Failures per check class are capped so a systemically corrupted manager
/// (every node violating the same rule) yields a readable report, not an
/// allocation storm.
constexpr std::size_t kMaxFailuresPerCheck = 16;

class Recorder {
 public:
  explicit Recorder(AuditReport& report) : report_(report) {}

  void fail(AuditCheck check, const Node* node, std::string detail) {
    const auto idx = static_cast<std::size_t>(check);
    if (counts_[idx] == kMaxFailuresPerCheck) {
      report_.failures.push_back(
          {check, nullptr, std::string("further ") + to_string(check) + " failures suppressed"});
    }
    if (counts_[idx]++ < kMaxFailuresPerCheck) {
      report_.failures.push_back({check, node, std::move(detail)});
    }
  }

 private:
  AuditReport& report_;
  std::size_t counts_[16] = {};
};

std::string describe(const Node* n) {
  std::ostringstream os;
  os << "node " << static_cast<const void*>(n);
  if (n != nullptr) os << " (level " << n->level() << ")";
  return os.str();
}

/// Reduced-canonical-form checks for one interned node (make_node's
/// postconditions; see node.hpp).
void check_canonical(const Node* n, Recorder& rec) {
  const Edge& lo = n->low();
  const Edge& hi = n->high();

  // Variable levels strictly increase child-ward (terminal = +inf).
  if (lo.top_level() <= n->level() || hi.top_level() <= n->level()) {
    rec.fail(AuditCheck::kLevelOrder, n,
             describe(n) + ": child levels not strictly below the parent");
  }

  // Near-zero weights must be stored as the canonical zero edge, and a node
  // with two zero children must not exist at all.
  const bool lo_zeroish = approx_zero(lo.weight);
  const bool hi_zeroish = approx_zero(hi.weight);
  if ((lo_zeroish && !lo.is_zero()) || (hi_zeroish && !hi.is_zero())) {
    rec.fail(AuditCheck::kWeightNorm, n,
             describe(n) + ": near-zero child weight not the canonical zero edge");
  }
  if (lo.is_zero() && hi.is_zero()) {
    rec.fail(AuditCheck::kWeightNorm, n, describe(n) + ": both children are the zero edge");
  }

  // Redundant node: the tensor does not depend on this variable.
  if (lo.node == hi.node && approx_equal(lo.weight, hi.weight)) {
    rec.fail(AuditCheck::kRedundantNode, n,
             describe(n) + ": children equal in node and weight");
  }

  // Pivot normalisation: one child weight snapped to exactly 1, the sibling
  // within magnitude 1 (the tie-break tolerance admits ~1e-9 overshoot).
  const cplx one{1.0, 0.0};
  if (lo.weight != one && hi.weight != one) {
    rec.fail(AuditCheck::kWeightNorm, n, describe(n) + ": no child weight is exactly 1");
  }
  constexpr double kMagTol = 1.0 + 1e-8;
  if (std::abs(lo.weight) > kMagTol || std::abs(hi.weight) > kMagTol) {
    rec.fail(AuditCheck::kWeightNorm, n, describe(n) + ": child weight magnitude exceeds 1");
  }
}

}  // namespace

bool audit(Manager& mgr, AuditReport& report, std::span<const Edge> roots) {
  report = AuditReport{};
  report.roots = roots.size();
  Recorder rec(report);

  UniqueTable& table = AuditAccess::table(mgr);
  NodeArena& arena = AuditAccess::arena(mgr);

  // -- pass 1: the unique table, entry by entry -----------------------------
  // Per-node occurrence counts catch double interning; the hash recompute
  // catches a stored hash drifting away from the node it indexes.
  FlatCache<const Node*, std::size_t> interned;
  std::size_t entries = 0;
  table.for_each_entry([&](std::size_t shard, std::uint64_t hash, const Node* node) {
    ++entries;
    if (std::size_t* count = interned.find(node)) {
      ++*count;
    } else {
      interned.insert(node, 1);
    }
    if (UniqueTable::shard_of(hash) != shard) {
      std::ostringstream os;
      os << describe(node) << ": entry in shard " << shard << ", stored hash selects shard "
         << UniqueTable::shard_of(hash);
      rec.fail(AuditCheck::kShardPlacement, node, os.str());
    }
    if (NodeKeyHash{}(NodeKey::of(*node)) != hash) {
      rec.fail(AuditCheck::kHashConsistency, node,
               describe(node) + ": stored hash disagrees with the node's fields");
    }
    if (AuditAccess::freed(*node)) {
      rec.fail(AuditCheck::kResidency, node, describe(node) + ": interned node is freed");
    }
    check_canonical(node, rec);
  });
  report.interned_nodes = entries;
  interned.for_each([&](const Node* node, std::size_t count) {
    if (count > 1) {
      rec.fail(AuditCheck::kResidency, node,
               describe(node) + ": interned " + std::to_string(count) + " times");
    }
  });

  // -- pass 2: reachability from the caller's roots -------------------------
  // Each root must be interned here: ids repeat across managers, so a
  // foreign root's walk marks this arena's nodes.  The marks stay on this
  // thread for passes 3 and 4: no other walk may run before the audit ends.
  for (const Edge& r : roots) {
    if (r.node != nullptr && !interned.contains(r.node)) {
      rec.fail(AuditCheck::kResidency, r.node, describe(r.node) + ": root not interned");
    }
  }
  report.reachable_nodes = walk(roots);

  // -- pass 3: arena bookkeeping --------------------------------------------
  // At a quiescent point: interned == constructed-and-not-freed == live(),
  // and every reachable node is a live, interned node of this arena.
  std::size_t constructed_not_freed = 0;
  std::size_t reached_here = 0;
  arena.for_each_constructed([&](Node& n) {
    const bool freed = AuditAccess::freed(n);
    if (!freed) ++constructed_not_freed;
    if (!walked(n)) return;
    ++reached_here;
    if (freed) {
      rec.fail(AuditCheck::kFreedReachable, &n, describe(&n) + ": reachable node is freed");
    }
    if (!interned.contains(&n)) {
      rec.fail(AuditCheck::kResidency, &n, describe(&n) + ": reachable node not interned");
    }
  });
  if (reached_here != report.reachable_nodes) {
    rec.fail(AuditCheck::kResidency, nullptr,
             "walk reached " + std::to_string(report.reachable_nodes) +
                 " nodes but marked " + std::to_string(reached_here) + " in this arena");
  }
  report.live_nodes = arena.live();
  report.free_nodes = arena.free_pool();
  if (constructed_not_freed != report.live_nodes) {
    rec.fail(AuditCheck::kCounts, nullptr,
             "constructed-and-not-freed (" + std::to_string(constructed_not_freed) +
                 ") != live counter (" + std::to_string(report.live_nodes) + ")");
  }
  if (entries != report.live_nodes) {
    rec.fail(AuditCheck::kCounts, nullptr,
             "unique-table entries (" + std::to_string(entries) + ") != live counter (" +
                 std::to_string(report.live_nodes) + ")");
  }

  // Free-listed nodes (the arena's global pool and every slot's local list)
  // must be flagged freed, never interned, never reachable.
  const auto check_free_node = [&](const Node& n, const char* where) {
    if (!AuditAccess::freed(n)) {
      rec.fail(AuditCheck::kCounts, &n,
               describe(&n) + std::string(": node on the ") + where + " free list not flagged freed");
    }
    if (interned.contains(&n)) {
      rec.fail(AuditCheck::kResidency, &n,
               describe(&n) + std::string(": free-listed node still interned (") + where + ")");
    }
    if (walked(n)) {
      rec.fail(AuditCheck::kFreedReachable, &n,
               describe(&n) + std::string(": free-listed node reachable from the roots (") +
                   where + ")");
    }
  };
  arena.for_each_free([&](const Node& n) { check_free_node(n, "arena"); });

  // -- pass 4: per-slot free lists and op caches ----------------------------
  const auto check_cached = [&](const Node* n, const char* what) {
    if (n == nullptr) return;  // terminal: always valid
    if (AuditAccess::freed(*n) || !interned.contains(n)) {
      rec.fail(AuditCheck::kOpCache, n,
               describe(n) + std::string(": ") + what + " references a dead node");
    }
  };
  AuditAccess::for_each_slot(mgr, [&](const Manager::ThreadSlot& sl) {
    AuditAccess::for_each_slot_free(sl, [&](const Node& n) { check_free_node(n, "slot"); });
    AuditAccess::for_each_add_entry(sl, [&](const Node* a, const Node* b, const Edge& value) {
      check_cached(a, "add-cache key");
      check_cached(b, "add-cache key");
      check_cached(value.node, "add-cache value");
    });
    AuditAccess::for_each_cont_entry(sl, [&](const Node* a, const Node* b, const Edge& value) {
      check_cached(a, "contraction-cache key");
      check_cached(b, "contraction-cache key");
      check_cached(value.node, "contraction-cache value");
    });
  });

  return report.clean();
}

AuditReport audit_or_throw(Manager& mgr, std::span<const Edge> roots, RunStats* stats) {
  AuditReport report;
  if (!audit(mgr, report, roots)) throw AuditError(std::move(report));
  if (stats != nullptr) {
    ++stats->audits_run;
    if (report.interned_nodes > stats->audited_nodes) stats->audited_nodes = report.interned_nodes;
  }
  return report;
}

// -- corruption hooks --------------------------------------------------------

void corrupt_plant_redundant_node(Manager& mgr) {
  const Edge child{nullptr, cplx{1.0, 0.0}};
  AuditAccess::raw_intern(mgr, Level{0}, child, child);
}

void corrupt_plant_denormalised_node(Manager& mgr) {
  AuditAccess::raw_intern(mgr, Level{0}, Edge{nullptr, cplx{0.5, 0.0}},
                          Edge{nullptr, cplx{0.25, 0.0}});
}

bool corrupt_misplace_shard_entry(Manager& mgr) { return AuditAccess::misplace_entry(mgr); }

bool corrupt_rehash_entry(Manager& mgr) { return AuditAccess::rehash_entry(mgr); }

void corrupt_free_reachable_node(Manager& mgr, const Edge& root) {
  require(root.node != nullptr, "corrupt_free_reachable_node: root must be non-terminal");
  (void)mgr;
  AuditAccess::flag_freed(root.node);
}

}  // namespace qts::tdd
