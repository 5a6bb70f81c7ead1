#include "tn/contract.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace qts::tn {

using tdd::Edge;
using tdd::Level;

Edge sum_out(tdd::Manager& mgr, const Edge& e, Level level) {
  return mgr.add(mgr.slice(e, level, 0), mgr.slice(e, level, 1));
}

Edge contract_planned(tdd::Manager& mgr, const Edge& front, std::span<const Tensor> rest,
                      const ContractionPlan& plan, ExecutionContext* ctx,
                      tdd::OperandView last_view) {
  const std::size_t n = rest.size() + 1;
  if (plan.num_tensors != n || plan.steps.size() + 1 != n) {
    throw InvalidArgument("contract_network: plan was built for " +
                          std::to_string(plan.num_tensors) + " tensors with " +
                          std::to_string(plan.steps.size()) + " steps, got " +
                          std::to_string(n) + " tensors");
  }

  // Slot s < n is an input; slot n+i is the result of step i.
  std::vector<Edge> merged;
  merged.reserve(plan.steps.size());
  const auto slot = [&](std::size_t s) -> const Edge& {
    if (s == 0) return front;
    if (s < n) return rest[s - 1].edge;
    if (s - n >= merged.size()) throw InvalidArgument("contract_network: malformed plan step");
    return merged[s - n];
  };
  for (const PlanStep& step : plan.steps) {
    if (ctx != nullptr) ctx->check_deadline();
    const bool last = merged.size() + 1 == plan.steps.size();
    const Edge result = mgr.contract(slot(step.lhs), slot(step.rhs), step.sum,
                                     last ? last_view : tdd::OperandView::kPlain);
    tdd::record_peak(ctx, result);
    merged.push_back(result);
  }

  Edge acc = merged.empty() ? front : merged.back();
  if (merged.empty()) tdd::record_peak(ctx, acc);
  for (const Level l : plan.tail) {
    acc = sum_out(mgr, acc, l);
    tdd::record_peak(ctx, acc);
  }
  return acc;
}

Push plan_push(const CircuitNetwork& net, std::span<const Tensor> ops, ExecutionContext* ctx) {
  Push out;
  out.factor = net.factor;
  if (!ops.empty()) {
    std::vector<Level> keep = net.outputs;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    std::vector<std::vector<Level>> index_sets;
    index_sets.reserve(ops.size() + 1);
    index_sets.push_back(net.inputs);
    for (const auto& t : ops) index_sets.push_back(t.indices);
    out.plan = plan_order_indices(index_sets, keep, OrderPolicy::kCaller, ctx);
    // push() relabels in the last step, so nothing may be summed after it.
    require(out.plan.tail.empty(), "plan_push: a push plan must end on a contraction step");
  }
  return out;
}

Edge push(tdd::Manager& mgr, const Edge& ket, std::span<const Tensor> ops, const Push& p,
          ExecutionContext* ctx) {
  if (ops.empty()) {
    const Edge result = mgr.scale(ket, p.factor);
    tdd::record_peak(ctx, result);  // contract_planned records the steps of the others
    return result;
  }
  return mgr.scale(contract_planned(mgr, ket, ops, p.plan, ctx, tdd::OperandView::kStateOut),
                   p.factor);
}

Tensor contract_network(tdd::Manager& mgr, const std::vector<Tensor>& tensors,
                        const std::vector<Level>& keep, ExecutionContext* ctx,
                        OrderPolicy policy) {
  require(!tensors.empty(), "contract_network needs at least one tensor");
  return contract_network(mgr, tensors, keep, ctx, plan_order(tensors, keep, policy, ctx));
}

Tensor contract_network(tdd::Manager& mgr, const std::vector<Tensor>& tensors,
                        const std::vector<Level>& keep, ExecutionContext* ctx,
                        const ContractionPlan& plan) {
  require(!tensors.empty(), "contract_network needs at least one tensor");
  const std::span<const Tensor> all(tensors);
  return Tensor{contract_planned(mgr, all.front().edge, all.subspan(1), plan, ctx), keep};
}

}  // namespace qts::tn
