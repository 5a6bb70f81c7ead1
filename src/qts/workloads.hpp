/// \file workloads.hpp
/// The benchmark transition systems of §VI plus the paper's two worked
/// examples (bit-flip code, noisy quantum walk), assembled from the circuit
/// generators with the "commonly used input states" as initial subspaces.
#pragma once

#include <cstdint>

#include "qts/system.hpp"
#include "tdd/manager.hpp"

namespace qts {

/// GHZ preparation circuit on n qubits; initial span{|0…0⟩}.
TransitionSystem make_ghz_system(tdd::Manager& mgr, std::uint32_t n);

/// Bernstein-Vazirani on n qubits; initial span{|0…0⟩}.
TransitionSystem make_bv_system(tdd::Manager& mgr, std::uint32_t n);

/// QFT on n qubits; initial span{|0…0⟩}.
TransitionSystem make_qft_system(tdd::Manager& mgr, std::uint32_t n);

/// Grover iteration on n qubits (n-1 search + oracle qubit); the initial
/// subspace is the invariant span{|+…+⟩|−⟩, |1…1⟩|−⟩} of §III-A-1.
TransitionSystem make_grover_system(tdd::Manager& mgr, std::uint32_t n);

/// Gate-level Grover iteration on n total qubits (odd, >= 5): every
/// multi-controlled gate is decomposed into a Toffoli V-chain with clean
/// ancillas.  The invariant subspace is span{|+…+⟩|−⟩|0…0⟩, |1…1⟩|−⟩|0…0⟩}.
/// This variant reproduces the paper's Grover TDD blow-up, which the
/// hyperedge-primitive MCX of make_grover_system avoids (the
/// `ablationB/grover*` rows of BENCH_ablation.json compare the two).
TransitionSystem make_grover_decomposed_system(tdd::Manager& mgr, std::uint32_t n);

/// Quantum walk on a cycle of length 2^(n-1) with a bit-flip noise channel
/// (probability p) on the coin after the Hadamard, as in §VI-A.  With
/// noisy == false the walk is the single-Kraus unitary step.  The initial
/// subspace is span{|0⟩|position⟩}.
TransitionSystem make_qrw_system(tdd::Manager& mgr, std::uint32_t n, double p = 0.1,
                                 bool noisy = true, std::uint64_t position = 0);

/// The Fig. 3 one-bit-flip error-correcting circuit as a transition system
/// on 6 qubits (3 data + 3 syndrome): four operations T_000, T_101, T_110,
/// T_011, each a projector-guarded correction after syndrome extraction.
/// The initial subspace is span{|100 000⟩, |010 000⟩, |001 000⟩}.
TransitionSystem make_bitflip_code_system(tdd::Manager& mgr);

}  // namespace qts
