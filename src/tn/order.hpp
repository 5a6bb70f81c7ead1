/// \file order.hpp
/// Contraction-order planning for contract_network.
///
/// A plan is computed from the *index sets* alone — the TDD values never
/// matter, only which indices each tensor touches and which must be kept —
/// so it is computed once per prepared circuit and replayed for every Kraus
/// application of the fixpoint.  A plan is compiled: every step carries the
/// levels it sums out, and the plan carries the tail summed after the last
/// step, so replaying it needs no index bookkeeping at all.
///
/// Cost model: the width of an intermediate is the size of its visible
/// index set (indices mentioned outside the merged subtree, or in `keep`);
/// its proxy cost is 2^width, the dense upper bound on the intermediate
/// TDD's size.  A plan's estimated cost is the sum of its merge costs.
/// Because reduced TDDs are canonical, the FINAL tensor is bit-identical
/// whatever the order — planning changes intermediate sizes and wall-clock
/// only, never results.
///
/// Policies:
///   * kCaller — the left-to-right fold in the caller's tensor order.  This
///     is the paper's order wherever the order *is* the algorithm: image
///     pushes fold the ket first through the operator tensors, and
///     contraction-partition blocks contract in circuit order;
///   * kGreedy — min-width pairwise merging: every step merges the pair of
///     live tensors whose result has the smallest visible width, preferring
///     pairs that actually share an index, with deterministic position
///     tie-breaks.  Incremental: a merge changes no other pair's width, so
///     a lazy-deletion heap scores only the merged slot's new pairs, and
///     the plans are step-identical to the O(n^3) rescan.  Always used for
///     the monolithic pre-contractions of the basic and addition engines,
///     where it beats the caller fold on every Table I cell.
///
/// The policy is not a user setting: each caller fixes the order its
/// algorithm needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/execution_context.hpp"
#include "tn/tensor.hpp"

namespace qts::tn {

enum class OrderPolicy {
  kCaller,  ///< left-to-right fold in the caller's tensor order
  kGreedy,  ///< min-width greedy pairwise merging
};

/// One pairwise merge in SSA form: slots 0..n-1 are the input tensors, the
/// result of step i becomes slot n+i.  Every slot is consumed exactly once;
/// after n-1 steps one live slot remains.  `sum` lists the levels (sorted)
/// that no other live slot and no kept index mentions once both operands
/// retire: the merge contracts them away.
struct PlanStep {
  std::size_t lhs = 0;
  std::size_t rhs = 0;
  std::vector<tdd::Level> sum;
};

/// A compiled contraction order for one fixed tensor list + keep set.
/// Reusable across managers and runs: it references tensors by position
/// only.
struct ContractionPlan {
  std::vector<PlanStep> steps;     ///< n-1 merges in SSA slot numbering
  std::vector<tdd::Level> tail;    ///< levels summed after the last step
  std::size_t num_tensors = 0;     ///< n the plan was built for
  std::size_t max_width = 0;       ///< widest intermediate index set
  double estimated_cost = 0.0;     ///< sum of 2^width over the merges
};

/// Plan a contraction order for `tensors` with external set `keep` (sorted).
/// Deterministic: the plan depends only on the index sets, never on TDD
/// node identity, manager state or wall-clock — the same network plans the
/// same way in every run and every manager.  When `ctx` is non-null the
/// planner gauges (plans computed, planning seconds, max order width) are
/// recorded on its RunStats, and the greedy planner polls its deadline
/// while it plans (once per merge).
ContractionPlan plan_order(const std::vector<Tensor>& tensors,
                           const std::vector<tdd::Level>& keep, OrderPolicy policy,
                           ExecutionContext* ctx = nullptr);

/// Same planner on bare index sets (no TDD edges needed) — what the tests
/// and any ahead-of-time tooling use.
ContractionPlan plan_order_indices(const std::vector<std::vector<tdd::Level>>& index_sets,
                                   const std::vector<tdd::Level>& keep, OrderPolicy policy,
                                   ExecutionContext* ctx = nullptr);

}  // namespace qts::tn
