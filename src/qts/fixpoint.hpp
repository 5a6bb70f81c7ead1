/// \file fixpoint.hpp
/// The unified frontier-iteration driver behind every model-checking loop.
///
/// `reachable_space` and `check_invariant` used to carry near-duplicated
/// frontier bookkeeping; FixpointDriver owns it once: the accumulated and
/// frontier subspaces, GC root collection, deadline ticks and per-iteration
/// statistics.  The loops on top reduce to thin policies — invariant
/// checking is nothing but an early-exit predicate on each frontier
/// survivor.
///
/// Each iteration is one engine image step plus one Gram-Schmidt pass.  The
/// driver hands the frontier to the engine's one `ImageComputer::image_step`
/// hook, whatever the engine: sequential engines return every raw image,
/// the parallel engine shards the step across workers and returns the same
/// raw images, and representation-changing engines (statevector, sparse)
/// cross their seam once per step and return the residual basis of the
/// images.  The returned candidates then extend the accumulator in
/// ONE Gram-Schmidt pass (`Subspace::add_states`) on the caller's thread: the
/// surviving orthonormal residuals ARE the next frontier, carried as a bare
/// ket family (nothing ever projects onto the frontier, so no projector is
/// maintained for it).  The fixpoint result is therefore independent of how
/// the engine ran its step.
///
/// With set_oracle, run() ends in a differential cross-check: a second,
/// ordinary FixpointDriver runs the oracle engine on its own manager, over
/// the same operations and a bit-exact copy of the initial subspace
/// (Subspace::copy_to), for as many iterations as the primary ran.  Each
/// iteration's frontier dim, survivors and accumulated dim, then the final
/// spans, must agree, else InternalError.  The oracle shares no node, cache
/// or GC root with the run it checks; its prepared operators are cleared
/// when it is done, as the copied circuits die.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "qts/image.hpp"

namespace qts {

/// What one frontier iteration did.
struct IterationStats {
  std::size_t iteration = 0;     ///< 1-based iteration number
  std::size_t frontier_dim = 0;  ///< frontier basis vectors imaged
  /// Image vectors fed to the accumulator's Gram-Schmidt pass.  For a
  /// sequential or parallel engine this is every raw Kraus×ket image; the
  /// seam engines (statevector, sparse) return the residual basis of the
  /// images, which is fewer when the images are linearly dependent.
  std::size_t candidates = 0;
  std::size_t survivors = 0;     ///< residuals that extended the accumulator
  std::size_t shards = 0;        ///< shards the image step dispatched (1 = undivided)
  std::size_t acc_dim = 0;       ///< accumulated dimension after the iteration
  std::size_t live_nodes = 0;    ///< manager live nodes entering the iteration
  bool gc = false;               ///< a collection ran before this iteration's imaging
};

/// Callback invoked after every completed iteration (e.g. qtsmc --verbose).
using IterationObserver = std::function<void(const IterationStats&)>;

class FixpointDriver {
 public:
  /// The system is held by reference: it must outlive run().
  FixpointDriver(ImageComputer& computer, const TransitionSystem& sys);

  FixpointDriver& set_max_iterations(std::size_t n);

  /// Early-exit predicate over each frontier survivor, evaluated in the
  /// parent manager right after the accumulator was extended.  Returning
  /// false stops the run with `predicate_violated` set.  Checking only the
  /// survivors is equivalent to checking every raw image vector: the
  /// predicate's subspace is closed under linear combination, and every
  /// non-surviving image vector lies in the span of the (already vetted)
  /// accumulator plus earlier survivors.
  FixpointDriver& set_frontier_predicate(std::function<bool(const tdd::Edge&)> predicate);

  FixpointDriver& set_observer(IterationObserver observer);

  /// Differential cross-check (see the file comment) against `oracle`,
  /// which must be built on a manager other than the primary computer's
  /// (else InvalidArgument) and runs under its own context; a divergence
  /// throws InternalError.  The observer, history and frontier predicate
  /// see the primary run only.
  FixpointDriver& set_oracle(ImageComputer& oracle);

  /// Extra GC roots: subspaces that live in the computer's manager and must
  /// survive the driver's mark-sweep collections (e.g. the invariant
  /// subspace a predicate closes over).  A subspace of another manager makes
  /// gc() throw InvalidArgument.  Held by pointer; must outlive run().
  FixpointDriver& keep_alive(const Subspace& subspace);

  struct Result {
    Subspace space;                   ///< the accumulator when the loop stopped
    std::size_t iterations = 0;       ///< frontier iterations performed
    bool converged = false;           ///< fixpoint reached (or the full space saturated)
    bool predicate_violated = false;  ///< the frontier predicate rejected a survivor
  };

  /// Drive the iteration to the fixpoint, the iteration cap, a deadline, or
  /// a predicate violation.  GC runs at the top of an iteration — a
  /// quiescent point of the shared manager — when the context's adaptive
  /// trigger is on and live nodes have reached both its floor and `growth`
  /// times the level measured after the previous collection.
  /// Roots = the computer's prepared operators, the system's initial
  /// subspace, the accumulator, the frontier and every keep_alive subspace.
  Result run();

  /// Per-iteration statistics of the last run(), oldest first.
  [[nodiscard]] const std::vector<IterationStats>& history() const { return history_; }

 private:
  /// The frontier iteration itself: run() without the cross-check.
  Result iterate();

  /// Rerun the system on the oracle and compare it with `primary`.
  void cross_check(const Result& primary);

  /// Everything the loop still needs alive: the roots handed to gc() and to
  /// the structural auditor alike.
  [[nodiscard]] std::vector<tdd::Edge> gather_roots(const Subspace& acc,
                                                    const std::vector<tdd::Edge>& frontier) const;

  ImageComputer& computer_;
  const TransitionSystem& sys_;
  std::size_t max_iterations_ = 100;
  std::function<bool(const tdd::Edge&)> predicate_;
  IterationObserver observer_;
  ImageComputer* oracle_ = nullptr;
  std::vector<const Subspace*> extra_roots_;
  std::vector<IterationStats> history_;
  std::size_t gc_baseline_ = 0;  ///< live nodes after the last collection
};

}  // namespace qts
