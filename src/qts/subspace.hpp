/// \file subspace.hpp
/// Closed subspaces of the n-qubit Hilbert space, represented the way §IV of
/// the paper prescribes: an orthonormal basis of TDD kets together with the
/// projector TDD P = Σ|bᵢ⟩⟨bᵢ|.
#pragma once

#include <cstdint>
#include <vector>

#include "qts/states.hpp"
#include "tdd/manager.hpp"

namespace qts {

class Subspace {
 public:
  /// The zero subspace of an n-qubit space.
  Subspace(tdd::Manager& mgr, std::uint32_t n);

  /// span of the given (not necessarily orthogonal or normalised) kets, added
  /// one add_state at a time: an initial span keeps the basis and projector
  /// bits of adding its kets in order, whatever add_states' flush size.
  static Subspace from_states(tdd::Manager& mgr, std::uint32_t n,
                              const std::vector<tdd::Edge>& states);

  /// Basis decomposition of a projector (§IV-A): repeatedly locate the
  /// leftmost non-zero column via the TDD's leftmost non-zero path, extract
  /// and normalise it, and deflate P ← P − |v⟩⟨v|.
  static Subspace from_projector(tdd::Manager& mgr, std::uint32_t n, const tdd::Edge& projector);

  [[nodiscard]] std::uint32_t num_qubits() const { return n_; }
  [[nodiscard]] std::size_t dim() const { return basis_.size(); }
  [[nodiscard]] const std::vector<tdd::Edge>& basis() const { return basis_; }
  [[nodiscard]] const tdd::Edge& projector() const { return projector_; }
  [[nodiscard]] tdd::Manager& manager() const { return *mgr_; }

  /// This subspace rebuilt in `mgr` through the tdd::io codec: the same
  /// basis and projector, bit for bit (the cross-check oracle's copy).
  [[nodiscard]] Subspace copy_to(tdd::Manager& mgr) const;

  /// Gram-Schmidt extension (§IV-B): orthogonalise `state` against the
  /// subspace; if a component survives, grow the basis and the projector.
  /// Returns true iff the dimension grew.  `state` need not be normalised.
  /// This is add_states of the one state, whose flush adds the survivor's
  /// outer product to the projector at once.
  bool add_state(const tdd::Edge& state);

  /// Batched Gram-Schmidt extension: orthogonalise every vector in order and
  /// return the orthonormal residuals that were appended, exactly the basis
  /// of "what was new" in `states`.
  ///   * A state on the same node as an earlier non-zero state of the call is
  ///     a scalar multiple of it (hash-consing) and is skipped without a norm
  ///     or a projection; the result is the same as adding it.
  ///   * Each other state is normalised, then takes two passes (CGS2) of
  ///     u -= P·u + Σ_w w⟨w|u⟩, where P is the projector at the last flush
  ///     and w runs over this call's survivors since then.  The zero-norm and
  ///     residual cutoffs are the shared representation-seam constants of
  ///     common/complex.hpp (kZeroNormTol / kResidualTol2).
  ///   * Every 16 survivors, and at the end of the call, a flush adds their
  ///     outer products to P, summed pairwise in survivor order (a balanced
  ///     tree) rather than one at a time.
  /// The span equals that of add_state-at-a-time; a call of more than one
  /// survivor may give a basis and projector that differ from it in the last
  /// bits.  Throws InternalError if a survivor would push dim() past 2^n
  /// (n < 64): the basis has then lost orthogonality and the result would be
  /// wrong.
  std::vector<tdd::Edge> add_states(const std::vector<tdd::Edge>& states);

  /// Join S ∨ T: add_states of `other`'s basis.
  void join(const Subspace& other);

  /// True if `state` ∈ S (up to tolerance; `state` need not be normalised).
  [[nodiscard]] bool contains(const tdd::Edge& state, double tol = kMembershipTol) const;

  /// Mutual containment (same dimension and same span).
  [[nodiscard]] bool same_subspace(const Subspace& other) const;

  /// P|ψ⟩.
  [[nodiscard]] tdd::Edge project(const tdd::Edge& state) const;

  /// The orthogonal complement S⊥ (projector I − P decomposed into a basis).
  /// The complement's dimension is 2^n − dim(), so this is restricted to
  /// small registers (n ≤ 16).
  [[nodiscard]] Subspace complement() const;

  /// Subspace intersection S ∧ T = (S⊥ ∨ T⊥)⊥ (the lattice meet of the
  /// Birkhoff-von Neumann logic).  Small registers only — see complement().
  [[nodiscard]] Subspace intersect(const Subspace& other) const;

 private:
  friend class ResultCache;

  /// A subspace from a stored orthonormal basis and its projector, taken
  /// as given: the result cache's hit path, which checks the basis count
  /// against tr(P) and serves the basis the cold run computed instead of
  /// re-deriving one with from_projector.
  static Subspace from_stored(tdd::Manager& mgr, std::uint32_t n, std::vector<tdd::Edge> basis,
                              const tdd::Edge& projector);

  tdd::Manager* mgr_;
  std::uint32_t n_;
  std::vector<tdd::Edge> basis_;
  tdd::Edge projector_;  // zero edge for the zero subspace
};

}  // namespace qts
