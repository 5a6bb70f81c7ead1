/// \file states.hpp
/// TDD representations of kets, bras and operators on n qubits.
///
/// Conventions (see tdd/levels.hpp):
///   * a ket |ψ⟩ is a TDD over the state levels state_level(q), q = 0..n-1;
///   * an operator/projector is a TDD over interleaved (state_level(q),
///     bra_level(q)) pairs — state = row index, bra = column index, exactly
///     the x/y interleaving of Fig. 1;
///   * qubit 0 is the most significant bit of a basis-state label.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "tdd/dense.hpp"
#include "tdd/manager.hpp"

namespace qts {

/// The sorted ket index list of an n-qubit state.
std::vector<tdd::Level> state_levels(std::uint32_t n);

/// The sorted bra index list of an n-qubit operator.
std::vector<tdd::Level> bra_levels(std::uint32_t n);

/// Interleaved (ket, bra) index list of an n-qubit operator.
std::vector<tdd::Level> operator_levels(std::uint32_t n);

/// Computational basis ket |b⟩; `basis_index` encodes qubit 0 as the MSB.
tdd::Edge ket_basis(tdd::Manager& mgr, std::uint32_t n, std::uint64_t basis_index);

/// Product ket ⊗_q (amps[q][0]|0⟩ + amps[q][1]|1⟩); works at any width.
tdd::Edge ket_product(tdd::Manager& mgr, std::span<const std::array<cplx, 2>> amps);

/// Dense amplitudes → ket TDD (small n; oracle/test use).
tdd::Edge ket_from_dense(tdd::Manager& mgr, std::uint32_t n, std::span<const cplx> amps);

/// Ket TDD → dense amplitudes (small n).
std::vector<cplx> ket_to_dense(const tdd::Edge& ket, std::uint32_t n);

// inner, norm, outer and apply_operator are each one Manager::contract call
// through an OperandView (manager.hpp): they build no conjugated or renamed
// temporary diagram.

/// Hermitian inner product ⟨a|b⟩ of two n-qubit kets on the state levels.
/// The width is required because a variable missing from both (reduced)
/// diagrams still contributes a factor 2 to the contraction.
cplx inner(tdd::Manager& mgr, const tdd::Edge& a, const tdd::Edge& b, std::uint32_t n);

/// Euclidean norm of an n-qubit ket.
double norm(tdd::Manager& mgr, const tdd::Edge& ket, std::uint32_t n);

/// |a⟩⟨b| as an operator TDD.
tdd::Edge outer(tdd::Manager& mgr, const tdd::Edge& a, const tdd::Edge& b, std::uint32_t n);

/// Apply an operator TDD to a ket: |out⟩ = Op |in⟩.
tdd::Edge apply_operator(tdd::Manager& mgr, const tdd::Edge& op, const tdd::Edge& ket,
                         std::uint32_t n);

/// Trace of an operator TDD: one memoised walk down its diagonal (ket bit
/// == bra bit), doubling per qubit the diagram skips.  Reads the diagram
/// only; `mgr` is kept for symmetry with the other operator helpers.
cplx operator_trace(tdd::Manager& mgr, const tdd::Edge& op, std::uint32_t n);

/// The identity operator TDD ⊗_q δ(ket_q, bra_q); O(n) nodes at any width.
tdd::Edge identity_operator(tdd::Manager& mgr, std::uint32_t n);

/// Operator TDD → dense matrix (small n; row = state index, col = bra).
la::Matrix operator_to_dense(const tdd::Edge& op, std::uint32_t n);

/// Dense matrix → operator TDD (small n).
tdd::Edge operator_from_dense(tdd::Manager& mgr, const la::Matrix& m, std::uint32_t n);

}  // namespace qts
