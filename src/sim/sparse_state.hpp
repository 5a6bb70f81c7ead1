/// \file sparse_state.hpp
/// Sparse amplitude-map simulation: a ket as a hash map of its non-zero
/// amplitudes, with Kraus-aware operation application; its Gram-Schmidt
/// subspace mirror is sim::BasisSubspace<SparseState> (basis_subspace.hpp),
/// the same template as the dense one.  This is the third state
/// representation behind the engine seam (TDD kets, dense la::Vector, now
/// sparse maps): where the dense simulator materialises 2^n amplitudes
/// regardless of structure, a sparse state pays only for its populated
/// basis states — so a basis-state-dominated workload (noisy walks,
/// GHZ-style preparation, stabilizer-ish frontiers) scales by non-zero
/// count, not qubit count.
///
/// Conventions match sim/statevector.hpp exactly: qubit 0 is the MOST
/// significant bit of a basis-state index.  Registers up to 64 qubits fit
/// the 64-bit index keys.
///
/// Tolerances are the TDD package's: amplitudes within `kEps` of zero
/// relative to the state's largest magnitude are pruned (mirroring the
/// manager's zero-snapping of normalised child weights; BasisSubspace
/// prunes every Gram-Schmidt residual the same way), and the subspace
/// mirror draws the zero-norm / residual / membership lines at the shared
/// constants of common/complex.hpp.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "circuit/circuit.hpp"
#include "common/complex.hpp"
#include "common/execution_context.hpp"

namespace qts::sim {

/// A ket stored as {basis index -> non-zero amplitude}.  Unpopulated
/// indices are amplitude zero.
class SparseState {
 public:
  using Map = std::unordered_map<std::uint64_t, cplx>;

  /// The zero vector of an n-qubit space (1 <= n <= 64).
  explicit SparseState(std::uint32_t n);

  /// |basis_index⟩.
  static SparseState basis(std::uint32_t n, std::uint64_t basis_index);

  [[nodiscard]] std::uint32_t num_qubits() const { return n_; }
  [[nodiscard]] std::size_t nonzeros() const { return amps_.size(); }
  [[nodiscard]] bool empty() const { return amps_.empty(); }
  [[nodiscard]] const Map& amplitudes() const { return amps_; }

  /// Amplitude at `basis_index` (zero when unpopulated).
  [[nodiscard]] cplx amplitude(std::uint64_t basis_index) const;

  /// Set one amplitude; an (exactly) zero value erases the entry, so the
  /// map never stores explicit zeros.
  void set(std::uint64_t basis_index, const cplx& amp);

  /// this += coeff * other (no pruning; callers prune at batch boundaries).
  void axpy(const cplx& coeff, const SparseState& other);

  SparseState& operator*=(const cplx& scalar);

  /// Hermitian inner product ⟨this|other⟩ (conjugate-linear in `this`).
  [[nodiscard]] cplx dot(const SparseState& other) const;

  /// Euclidean norm.
  [[nodiscard]] double norm() const;

  /// Drop entries whose magnitude is at or below `eps` times the largest
  /// magnitude — the sparse mirror of the TDD manager's zero-snapping of
  /// normalised child weights.  Cancellation residue from gate application
  /// and Gram-Schmidt would otherwise accumulate as junk entries and
  /// inflate the non-zero count the codec budgets against.
  void prune(double eps = kEps);

 private:
  std::uint32_t n_;
  Map amps_;
};

/// Apply one gate, touching only the populated basis states and their
/// images.  Handles any number of positive/negative controls and 1- or
/// 2-qubit base matrices (including non-unitary projector bases), exactly
/// like the dense apply_gate — but as a scatter over the support instead of
/// a gather over all 2^n indices.
/// When `ctx` is given the support sweep polls its deadline periodically,
/// so a wide sparse iteration is cancellable mid-gate.
SparseState apply_gate(const SparseState& state, const circ::Gate& gate, std::uint32_t n,
                       const ExecutionContext* ctx = nullptr);

/// Apply a whole circuit (including its global factor), pruning
/// cancellation residue once at the end.
SparseState apply_circuit(const circ::Circuit& circuit, const SparseState& input,
                          const ExecutionContext* ctx = nullptr);

}  // namespace qts::sim
