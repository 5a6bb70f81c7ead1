/// \file contract.hpp
/// Tensor-network contraction with correct index bookkeeping, executed as a
/// compiled contraction plan (see tn/order.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/execution_context.hpp"
#include "tn/order.hpp"
#include "tn/tensor.hpp"

namespace qts::tn {

/// Contract `tensors` into a single tensor whose index set is exactly
/// `keep` (sorted).  A shared index is summed out at the merge after which
/// no remaining tensor (and not `keep`) mentions it; indices private to the
/// final accumulator and absent from `keep` are summed at the end.  Records
/// every intermediate's size on `ctx` and honours its deadline (ctx may be
/// null).
///
/// `policy` chooses the pairwise merge order (tn/order.hpp).  The default
/// is the greedy min-width planner, which the basic and addition engines'
/// monolithic pre-contractions use; contraction-partition blocks and
/// `simulate` pass OrderPolicy::kCaller to fold in the given tensor order.
/// Because reduced TDDs are canonical the returned tensor is bit-identical
/// under every policy — only intermediate sizes and wall-clock change.
Tensor contract_network(tdd::Manager& mgr, const std::vector<Tensor>& tensors,
                        const std::vector<tdd::Level>& keep, ExecutionContext* ctx = nullptr,
                        OrderPolicy policy = OrderPolicy::kGreedy);

/// Same contraction under a precomputed plan (plan_order on the same index
/// sets + keep).
Tensor contract_network(tdd::Manager& mgr, const std::vector<Tensor>& tensors,
                        const std::vector<tdd::Level>& keep, ExecutionContext* ctx,
                        const ContractionPlan& plan);

/// Replay `plan` over the network [front] + rest — slot 0 is `front`, slot
/// i >= 1 is rest[i-1] — and return the contracted edge, whose index set is
/// the plan's keep set.  One mgr.contract per step with the step's
/// precomputed sum-out set; only merge results (and tail sums) are recorded
/// on `ctx`, never the inputs.  This is the image hot path: engines plan a
/// push once per prepared circuit and replay it for every Kraus application.
tdd::Edge contract_planned(tdd::Manager& mgr, const tdd::Edge& front,
                           std::span<const Tensor> rest, const ContractionPlan& plan,
                           ExecutionContext* ctx);

/// Σ over one index: slice at 0 and 1 and add.
tdd::Edge sum_out(tdd::Manager& mgr, const tdd::Edge& e, tdd::Level level);

}  // namespace qts::tn
