/// \file statevector.hpp
/// Dense statevector simulator — the independent oracle the test suite uses
/// to validate the TDD pipeline on small instances.
///
/// Bit convention (consistent with the TDD level order): qubit 0 is the MOST
/// significant bit of a basis-state index, so |q0 q1 ... q_{n-1}⟩ has index
/// q0·2^{n-1} + ... + q_{n-1}.
#pragma once

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/execution_context.hpp"
#include "linalg/vector.hpp"

namespace qts::sim {

/// |bits⟩ as a dense vector over n qubits (bits given MSB-first = qubit 0
/// first, encoded in the low bits of `basis_index`).
la::Vector basis_state(std::uint32_t n, std::uint64_t basis_index);

/// Bit of `qubit` inside a basis index under the MSB-first convention.
inline int qubit_bit(std::uint32_t n, std::uint64_t basis_index, std::uint32_t qubit) {
  return static_cast<int>((basis_index >> (n - 1 - qubit)) & 1u);
}

/// Apply one gate in place.  Handles any number of positive/negative
/// controls and 1- or 2-qubit base matrices (including non-unitary ones).
/// When `ctx` is given the 2^n-amplitude sweep polls its deadline every few
/// thousand indices, so a dense iteration is cancellable mid-gate.
void apply_gate(la::Vector& state, const circ::Gate& gate, std::uint32_t n,
                const ExecutionContext* ctx = nullptr);

/// Apply a whole circuit (including its global factor).
la::Vector apply_circuit(const circ::Circuit& circuit, const la::Vector& input,
                         const ExecutionContext* ctx = nullptr);

}  // namespace qts::sim
