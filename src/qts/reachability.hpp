/// \file reachability.hpp
/// Model-checking loops built on image computation: the reachable-subspace
/// fixpoint and a simple invariant checker for subspace properties in the
/// style of the Birkhoff-von Neumann temporal logic the paper cites.
///
/// Both loops are thin policies over qts::FixpointDriver (fixpoint.hpp),
/// which owns the frontier iteration — accumulator/frontier bookkeeping,
/// deadline ticks, GC and per-iteration stats — and runs each iteration
/// through the engine's one image step (sharded under `parallel:<t>`).
///
/// Both loops accept an optional ResultCache (result_cache.hpp): on a
/// content-hash hit the fixpoint is skipped entirely and the cached basis,
/// projector and verdict are rehydrated through the engine's manager; on a
/// miss the finished result is stored for the next identical job.  Cache traffic
/// is counted in RunStats::cache_{hits,misses,stores}.  The key excludes the
/// engine spec (engines affect speed, never results — the determinism
/// contract behind --cross-check), so a result computed by any engine,
/// including a degraded fallback chain, serves every other.
#pragma once

#include <cstddef>

#include "qts/fixpoint.hpp"
#include "qts/result_cache.hpp"

namespace qts {

struct ReachabilityResult {
  Subspace space;          ///< ⋁_k T^k(S0) at the point the loop stopped
  std::size_t iterations;  ///< image steps performed
  bool converged;          ///< true iff a fixpoint was reached
};

/// Least fixpoint of S ↦ S ∨ T(S) above the initial subspace.
///
/// Run control comes from the computer's ExecutionContext: its deadline is
/// honoured between (and, via the manager, within) image steps, and the
/// context's adaptive GC trigger runs a mark-sweep GC between iterations —
/// the roots are the accumulated/frontier subspaces, the system's initial
/// subspace and the computer's prepared operators, so the loop is
/// semantically unaffected.  `observer`, when set, is invoked after every iteration with
/// that iteration's statistics.  `oracle`, when non-null, is a second engine
/// (own manager) that reruns the fixpoint to check the primary — see
/// FixpointDriver::set_oracle; divergence throws InternalError.
ReachabilityResult reachable_space(ImageComputer& computer, const TransitionSystem& sys,
                                   std::size_t max_iterations = 100,
                                   IterationObserver observer = nullptr,
                                   ImageComputer* oracle = nullptr,
                                   ResultCache* cache = nullptr);

struct InvariantResult {
  bool holds;              ///< no reachable state leaves `invariant`
  std::size_t iterations;  ///< image steps performed before verdict
  bool converged;          ///< false iff the iteration budget ran out first
};

/// Check that the reachable subspace stays inside `invariant` (a safety
/// property: every reachable state satisfies the atomic proposition given
/// by the invariant subspace).  Stops early on the first violation.  Shares
/// the driver's run control with reachable_space — including GC (the
/// invariant subspace is kept as an extra root).  The oracle reruns plain
/// reachability for as many iterations as the primary ran.
InvariantResult check_invariant(ImageComputer& computer, const TransitionSystem& sys,
                                const Subspace& invariant, std::size_t max_iterations = 100,
                                IterationObserver observer = nullptr,
                                ImageComputer* oracle = nullptr,
                                ResultCache* cache = nullptr);

}  // namespace qts
