#include "qts/simulate.hpp"

#include <algorithm>

#include "qts/states.hpp"
#include "tn/circuit_tensors.hpp"

namespace qts {

tdd::Edge apply_circuit_tdd(tdd::Manager& mgr, const circ::Circuit& circuit,
                            const tdd::Edge& ket, ExecutionContext* ctx) {
  const std::uint32_t n = circuit.num_qubits();
  const tn::CircuitNetwork net = tn::build_network(mgr, circuit);
  tdd::Edge result;
  if (net.tensors.empty()) {
    result = ket;
  } else {
    std::vector<tn::Tensor> tensors;
    tensors.reserve(net.tensors.size() + 1);
    tensors.push_back(tn::Tensor{ket, state_levels(n)});
    tensors.insert(tensors.end(), net.tensors.begin(), net.tensors.end());
    std::vector<tdd::Level> keep = net.outputs;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    // A push: the ket folds through the gates in circuit order.
    const tn::Tensor out = tn::contract_network(mgr, tensors, keep, ctx, tn::OrderPolicy::kCaller);
    result = mgr.rename(out.edge, tn::output_to_state_map(net));
  }
  return mgr.scale(result, net.factor);
}

cplx amplitude(tdd::Manager& mgr, const circ::Circuit& circuit, std::uint64_t basis_index) {
  const std::uint32_t n = circuit.num_qubits();
  const tdd::Edge out = apply_circuit_tdd(mgr, circuit, ket_basis(mgr, n, 0));
  return inner(mgr, ket_basis(mgr, n, basis_index), out, n);
}

}  // namespace qts
