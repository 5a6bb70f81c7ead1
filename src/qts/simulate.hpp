/// \file simulate.hpp
/// TDD-based strong simulation of circuits on kets — the state is pushed
/// gate-by-gate through the circuit's tensor network, never materialising
/// an operator TDD.  This scales to hundreds of qubits whenever the
/// intermediate states stay compact (GHZ, BV, stabiliser-like circuits).
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/execution_context.hpp"
#include "tdd/manager.hpp"
#include "tn/contract.hpp"

namespace qts {

/// |out⟩ = C |ket⟩ with |ket⟩ on the canonical state levels; the push's
/// last contraction step builds the result on the state levels too (see
/// tn::push).  `ctx` may be null.
tdd::Edge apply_circuit_tdd(tdd::Manager& mgr, const circ::Circuit& circuit,
                            const tdd::Edge& ket, ExecutionContext* ctx = nullptr);

/// Probability amplitude ⟨basis|C|0…0⟩ without expanding the state densely.
cplx amplitude(tdd::Manager& mgr, const circ::Circuit& circuit, std::uint64_t basis_index);

}  // namespace qts
