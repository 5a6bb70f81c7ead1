#include "qts/backward.hpp"

#include "circuit/adjoint.hpp"
#include "qts/reachability.hpp"

namespace qts {

QuantumOperation adjoint_operation(const QuantumOperation& op) {
  QuantumOperation out{op.symbol + "_dg", {}};
  out.kraus.reserve(op.kraus.size());
  for (const auto& e : op.kraus) out.kraus.push_back(circ::adjoint(e));
  return out;
}

TransitionSystem adjoint_system(const TransitionSystem& sys) {
  TransitionSystem out{sys.num_qubits, sys.initial, {}};
  out.operations.reserve(sys.operations.size());
  for (const auto& op : sys.operations) out.operations.push_back(adjoint_operation(op));
  return out;
}

Subspace back_image(ImageComputer& computer, const QuantumOperation& op, const Subspace& s) {
  const QuantumOperation adj = adjoint_operation(op);
  const Subspace result = computer.image(adj, s);
  // The prepared-operator cache keys on circuit addresses; `adj` dies here.
  computer.clear_prepared();
  return result;
}

BackwardResult backward_reachable(ImageComputer& computer, const TransitionSystem& sys,
                                  const Subspace& target, std::size_t max_iterations,
                                  IterationObserver observer, ImageComputer* oracle,
                                  ResultCache* cache) {
  TransitionSystem back = adjoint_system(sys);
  back.initial = target;
  const ReachabilityResult r =
      reachable_space(computer, back, max_iterations, std::move(observer), oracle, cache);
  computer.clear_prepared();
  return {r.space, r.iterations, r.converged};
}

}  // namespace qts
