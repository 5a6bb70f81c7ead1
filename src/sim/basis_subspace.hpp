/// \file basis_subspace.hpp
/// Gram-Schmidt subspace over a simulator state type — the dense
/// (la::Vector) and sparse (sim::SparseState) mirrors of qts::Subspace
/// (subspace.hpp): an orthonormal basis of kets grown by the same CGS2
/// extension procedure, with add_states returning the orthonormal residuals
/// exactly like the TDD version.  No projector is kept: at the sizes these
/// representations serve, Σ|bᵢ⟩⟨bᵢ| would be quadratically larger than the
/// basis, so membership tests project against the basis directly.
///
/// The representations differ only in the small overloads below: the qubit
/// range a subspace may have, the width check on an incoming state and the
/// prune applied to a residual.  The zero-norm, residual and membership
/// cutoffs are the shared constants of common/complex.hpp (kZeroNormTol /
/// kResidualTol2 / kMembershipTol), the same lines qts::Subspace draws, so
/// every representation agrees on which vectors count as "new".
#pragma once

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/complex.hpp"
#include "common/error.hpp"
#include "linalg/vector.hpp"
#include "sim/sparse_state.hpp"

namespace qts::sim {

/// Dense kets materialise 2^n amplitudes: n <= 30, like basis_state.
inline void require_qubit_range(std::type_identity<la::Vector>, std::uint32_t n) {
  require(n <= 30, "dense subspace limited to 30 qubits");
}

/// Sparse kets are keyed by 64-bit basis indices: 1 <= n <= 64.
inline void require_qubit_range(std::type_identity<SparseState>, std::uint32_t n) {
  require(n >= 1 && n <= 64, "sparse subspace needs 1..64 qubits");
}

inline void require_width(const la::Vector& state, std::uint32_t n) {
  require(state.size() == (std::size_t{1} << n), "state size does not match qubit count");
}

inline void require_width(const SparseState& state, std::uint32_t n) {
  require(state.num_qubits() == n, "state width does not match qubit count");
}

/// Dense residuals are kept as computed.
inline void prune_residual(la::Vector&) {}

/// Sparse residuals drop their cancellation residue before the residual
/// norm is taken, so junk entries neither survive into the basis nor
/// inflate the non-zero count.
inline void prune_residual(SparseState& residual) { residual.prune(); }

template <class State>
class BasisSubspace {
 public:
  /// The zero subspace of an n-qubit space (range per require_qubit_range).
  explicit BasisSubspace(std::uint32_t n) : n_(n) {
    require_qubit_range(std::type_identity<State>{}, n);
  }

  /// span of the given (not necessarily orthogonal or normalised) kets.
  static BasisSubspace from_states(std::uint32_t n, const std::vector<State>& states) {
    BasisSubspace s(n);
    for (const auto& v : states) s.add_state(v);
    return s;
  }

  [[nodiscard]] std::uint32_t num_qubits() const { return n_; }
  [[nodiscard]] std::size_t dim() const { return basis_.size(); }
  [[nodiscard]] const std::vector<State>& basis() const { return basis_; }

  /// Gram-Schmidt extension: orthogonalise `state` against the subspace; if
  /// a component survives, grow the basis.  Returns true iff the dimension
  /// grew.  `state` need not be normalised.  Once the basis spans the whole
  /// 2^n-dimensional space nothing can survive, so the call returns false
  /// without orthogonalising.
  bool add_state(const State& state) {
    require_width(state, n_);
    if (n_ < 64 && dim() == (std::uint64_t{1} << n_)) return false;
    const double in_norm = state.norm();
    if (in_norm <= kZeroNormTol) return false;
    State u = state;
    u *= cplx{1.0 / in_norm, 0.0};

    // Two orthogonalisation passes (CGS2), mirroring qts::Subspace::add_state.
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& b : basis_) u.axpy(-b.dot(u), b);
    }
    prune_residual(u);
    const double res2 = u.dot(u).real();
    if (res2 <= kResidualTol2) return false;

    u *= cplx{1.0 / std::sqrt(res2), 0.0};
    basis_.push_back(std::move(u));
    return true;
  }

  /// Batched extension: add_state every vector in order and return the
  /// orthonormal residuals that were appended — the basis of "what was new"
  /// in `states`, spanning the same space as the inputs modulo the subspace.
  std::vector<State> add_states(const std::vector<State>& states) {
    std::vector<State> survivors;
    for (const auto& v : states) {
      if (add_state(v)) survivors.push_back(basis_.back());
    }
    return survivors;
  }

  /// True if `state` ∈ S (up to tolerance; `state` need not be normalised).
  [[nodiscard]] bool contains(const State& state, double tol = kMembershipTol) const {
    require_width(state, n_);
    const double in_norm = state.norm();
    if (in_norm <= kZeroNormTol) return true;  // the zero vector is in every subspace
    State u = state;
    u *= cplx{1.0 / in_norm, 0.0};
    for (const auto& b : basis_) u.axpy(-b.dot(u), b);
    return u.norm() <= tol;
  }

  /// Mutual containment (same dimension and same span).
  [[nodiscard]] bool same_subspace(const BasisSubspace& other) const {
    if (dim() != other.dim()) return false;
    for (const auto& v : basis_) {
      if (!other.contains(v)) return false;
    }
    for (const auto& v : other.basis_) {
      if (!contains(v)) return false;
    }
    return true;
  }

 private:
  std::uint32_t n_;
  std::vector<State> basis_;
};

}  // namespace qts::sim
