/// \file contract.hpp
/// Tensor-network contraction with correct index bookkeeping, executed as a
/// compiled contraction plan (see tn/order.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/execution_context.hpp"
#include "tn/circuit_tensors.hpp"
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
/// monolithic pre-contractions use; contraction-partition blocks pass
/// OrderPolicy::kCaller to fold in the given tensor order, as plan_push does.
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
/// The last step runs under `last_view` (tdd::OperandView), every other step
/// plain; a relabelling view needs a plan that ends on a step (no tail).
tdd::Edge contract_planned(tdd::Manager& mgr, const tdd::Edge& front,
                           std::span<const Tensor> rest, const ContractionPlan& plan,
                           ExecutionContext* ctx,
                           tdd::OperandView last_view = tdd::OperandView::kPlain);

/// Everything about pushing a ket through a circuit's operator tensors that
/// depends only on their index sets, not on the ket: the compiled ket-first
/// fold of [ket] + ops onto the circuit's outputs and the circuit's scalar
/// factor.  Planned once per prepared circuit and replayed for every ket, so
/// no planning or index bookkeeping sits on the image path.
struct Push {
  ContractionPlan plan;    ///< ket-first fold of [ket] + ops
  cplx factor{1.0, 0.0};   ///< the circuit's global factor
};

/// Plan the push of a ket on `net.inputs` through `ops`, which may stand in
/// for any list with the same length and index sets (a push of addition's
/// slices plans once for all of them).  `ops` empty plans nothing: the push
/// is the factor alone.  A plan of two or more tensors ends on a step and
/// has no tail, which push() needs and this checks.  The plan is recorded
/// on `ctx` (may be null).
Push plan_push(const CircuitNetwork& net, std::span<const Tensor> ops, ExecutionContext* ctx);

/// C|ket⟩ for the circuit C that `ops` and `p` describe: the ket folded
/// through `ops` per `p.plan` and scaled by the circuit factor.  The last
/// step runs under tdd::OperandView::kStateOut, so it builds the result on
/// the state levels, one output per qubit, and no rename pass follows.
/// Every step's result, or the scaled ket when `ops` is empty, is recorded
/// as a peak-node candidate on `ctx` (may be null).
tdd::Edge push(tdd::Manager& mgr, const tdd::Edge& ket, std::span<const Tensor> ops,
               const Push& p, ExecutionContext* ctx);

/// Σ over one index: slice at 0 and 1 and add.
tdd::Edge sum_out(tdd::Manager& mgr, const tdd::Edge& e, tdd::Level level);

}  // namespace qts::tn
