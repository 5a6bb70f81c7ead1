/// \file audit.hpp
/// Deep structural auditor for the shared concurrent TDD manager.
///
/// The manager's correctness rests on invariants no single operation can see
/// whole: reduced canonical form (make_node's contract), unique-table
/// residency (hash-consing's contract), and arena/free-list bookkeeping
/// (GC's contract).  TSan only checks the interleavings a run happens to
/// hit, and a corrupted diagram does not crash — it silently model-checks
/// the wrong tensor.  `tdd::audit` walks the whole table, arena and op
/// caches at a quiescent point and verifies every invariant, so corruption
/// is caught at the seam that caused it instead of surfacing three layers
/// later as a wrong verdict.
///
/// Quiescence contract: like Manager::gc and storage_stats, audit() must run
/// with no concurrent manager mutators (fork/join callers audit between
/// rounds).  The walk itself takes the normal shard/arena/slot locks, so a
/// concurrent *reader* is harmless.
///
/// Surfaces: `qtsmc --audit` (post-run; corrupt -> exit 4 with a typed
/// report), `ExecutionContext::set_audit_every(k)` (the fixpoint driver
/// audits every k iterations and after each GC), and the corrupt_* test
/// hooks below that prove each check fires.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "tdd/manager.hpp"
#include "tdd/node.hpp"

namespace qts::tdd {

/// The invariant classes audit() verifies.  Each deliberate-corruption test
/// in tests/audit_test.cpp proves the corresponding check fires.
enum class AuditCheck {
  kLevelOrder,       ///< child levels not strictly below the parent's
  kRedundantNode,    ///< equal children, equal weights — make_node elides these
  kWeightNorm,       ///< weights not in normal form (no exact-1 pivot, |w| > 1,
                     ///< or a near-zero weight not stored as the canonical zero edge)
  kResidency,        ///< root or reachable node not interned (a root of another
                     ///< manager), interned more than once, or already freed
  kShardPlacement,   ///< table entry parked in a shard other than shard_of(stored hash)
  kHashConsistency,  ///< stored hash disagrees with the hash of the node's fields
  kFreedReachable,   ///< free-listed node still reachable from the roots
  kCounts,           ///< live/constructed/table occupancy bookkeeping disagrees
  kOpCache,          ///< op-cache entry references a freed or un-interned node
};

/// Stable lower-case name ("level-order", "redundant-node", ...).
const char* to_string(AuditCheck check);

/// One violated invariant.
struct AuditFailure {
  AuditCheck check;
  const Node* node = nullptr;  ///< offending node where one exists
  std::string detail;          ///< human-readable specifics
};

/// Everything one audit pass saw.  `failures` empty means the manager's
/// structure is provably consistent at the audit point.
struct AuditReport {
  std::vector<AuditFailure> failures;
  std::size_t interned_nodes = 0;   ///< unique-table entries walked
  std::size_t reachable_nodes = 0;  ///< nodes reachable from the given roots
  std::size_t live_nodes = 0;       ///< arena live() gauge at audit time
  std::size_t free_nodes = 0;       ///< arena global free pool size
  std::size_t roots = 0;            ///< root edges the walk started from

  [[nodiscard]] bool clean() const { return failures.empty(); }
  /// One line, e.g. "clean (1234 nodes, 2 roots)" or "3 failures: ...".
  [[nodiscard]] std::string summary() const;
};

/// Audit `mgr` at a quiescent point.  `roots` seeds the reachability checks
/// (pass the edges the caller intends to keep using — the same set it would
/// hand to gc()); with no roots the table/arena/cache checks still run.
/// Marks reachability with walk() on the calling thread, as gc() does.
/// Returns report.clean().
bool audit(Manager& mgr, AuditReport& report, std::span<const Edge> roots = {});

/// Like audit(), but throws AuditError on a dirty report and returns a clean
/// one.  With `stats`, a clean audit counts itself there: `audits_run` + 1
/// and `audited_nodes` raised to the nodes it walked.
AuditReport audit_or_throw(Manager& mgr, std::span<const Edge> roots = {},
                           RunStats* stats = nullptr);

/// A failed audit.  Derives InternalError — structural corruption is a
/// library bug, and the qtsmc exception ladder already maps InternalError to
/// exit 4 — but carries the typed report so callers can print per-failure
/// diagnostics instead of one flattened string.
class AuditError : public InternalError {
 public:
  explicit AuditError(AuditReport report)
      : InternalError("TDD audit failed: " + report.summary()), report_(std::move(report)) {}
  [[nodiscard]] const AuditReport& report() const { return report_; }

 private:
  AuditReport report_;
};

// -- test-only corruption hooks ---------------------------------------------
//
// Each plants exactly one class of corruption in `mgr` so the audit tests
// can prove the matching check fires.  They bypass make_node through the
// auditor's private access and leave the manager unusable for real work:
// throwaway managers only.

/// Intern a node whose two children are identical (equal nodes, equal
/// weights) — the shape make_node always elides.  Fires kRedundantNode.
void corrupt_plant_redundant_node(Manager& mgr);

/// Intern a node whose child weights are 0.5 / 0.25: no exact-1 pivot, so
/// the weight-normalisation rule is violated.  Fires kWeightNorm.
void corrupt_plant_denormalised_node(Manager& mgr);

/// Move one unique-table entry into the wrong shard, keeping its stored
/// hash; the target shard may be one that was never allocated.  Fires
/// kShardPlacement.  Returns false (and plants nothing) if the table is
/// empty.
bool corrupt_misplace_shard_entry(Manager& mgr);

/// Rewrite one unique-table entry's stored hash to a different value that
/// selects the same shard.  Fires kHashConsistency (and not
/// kShardPlacement).  Returns false (and plants nothing) if the table is
/// empty.
bool corrupt_rehash_entry(Manager& mgr);

/// Mark the root's node freed while it stays interned and reachable.  Fires
/// kFreedReachable (and the bookkeeping checks).  `root` must be
/// non-terminal.
void corrupt_free_reachable_node(Manager& mgr, const Edge& root);

}  // namespace qts::tdd
