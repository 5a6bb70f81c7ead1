#include "qts/simulate.hpp"

#include "qts/states.hpp"
#include "tn/circuit_tensors.hpp"

namespace qts {

tdd::Edge apply_circuit_tdd(tdd::Manager& mgr, const circ::Circuit& circuit,
                            const tdd::Edge& ket, ExecutionContext* ctx) {
  const tn::CircuitNetwork net = tn::build_network(mgr, circuit);
  return tn::push(mgr, ket, net.tensors, tn::plan_push(net, net.tensors, ctx), ctx);
}

cplx amplitude(tdd::Manager& mgr, const circ::Circuit& circuit, std::uint64_t basis_index) {
  const std::uint32_t n = circuit.num_qubits();
  const tdd::Edge out = apply_circuit_tdd(mgr, circuit, ket_basis(mgr, n, 0));
  return inner(mgr, ket_basis(mgr, n, basis_index), out, n);
}

}  // namespace qts
