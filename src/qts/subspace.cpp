#include "qts/subspace.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "tdd/flat_table.hpp"
#include "tdd/io.hpp"
#include "tdd/paths.hpp"

namespace qts {

using tdd::Edge;
using tdd::Level;

Subspace::Subspace(tdd::Manager& mgr, std::uint32_t n)
    : mgr_(&mgr), n_(n), projector_(mgr.zero()) {}

namespace {

/// Survivors whose outer products add_states sums into the projector at
/// once.  Until a flush, later candidates are projected against them one
/// inner product at a time; a larger batch lengthens that local sum, which
/// costs more than it saves when the batches misalign with the frontier.
constexpr std::size_t kFlushSurvivors = 16;

/// Σ terms, summed pairwise in order: a balanced tree, so each operand of an
/// add is the sum of about as many terms as the other.  A running sum adds
/// every term to an ever larger partial projector instead.
Edge tree_sum(tdd::Manager& mgr, std::vector<Edge> terms) {
  while (terms.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      terms[out++] = mgr.add(terms[i], terms[i + 1]);
    }
    if (terms.size() % 2 == 1) terms[out++] = terms.back();
    terms.resize(out);
  }
  return terms.empty() ? mgr.zero() : terms.front();
}

}  // namespace

Subspace Subspace::from_states(tdd::Manager& mgr, std::uint32_t n,
                               const std::vector<Edge>& states) {
  Subspace s(mgr, n);
  for (const auto& v : states) s.add_state(v);
  return s;
}

bool Subspace::add_state(const Edge& state) { return !add_states({state}).empty(); }

std::vector<Edge> Subspace::add_states(const std::vector<Edge>& states) {
  auto& mgr = *mgr_;
  const std::size_t first = basis_.size();
  // basis_[flushed..] are this call's survivors whose outer products are not
  // yet in projector_.
  std::size_t flushed = first;
  const auto flush = [&] {
    std::vector<Edge> outers;
    outers.reserve(basis_.size() - flushed);
    for (std::size_t i = flushed; i < basis_.size(); ++i) {
      outers.push_back(outer(mgr, basis_[i], basis_[i], n_));
    }
    projector_ = mgr.add(projector_, tree_sum(mgr, std::move(outers)));
    flushed = basis_.size();
  };
  // Nodes of the states already orthogonalised in this call.  Nodes are
  // hash-consed, so a later state on one of them is a scalar multiple of an
  // earlier one, whose direction is already in the span.  A node enters
  // only after its state passed the zero-norm test, so a negligible copy
  // never hides a real one, and the zero edge never enters: its null node
  // also stands for the constant ket.
  struct Seen {};
  tdd::FlatCache<const tdd::Node*, Seen> orthogonalised;
  for (const auto& v : states) {
    if (orthogonalised.contains(v.node)) continue;
    const double in_norm = norm(mgr, v, n_);
    if (in_norm <= kZeroNormTol) continue;
    orthogonalised.insert(v.node, Seen{});
    Edge u = mgr.scale(v, cplx{1.0 / in_norm, 0.0});
    // Two orthogonalisation passes (CGS2) for numerical robustness, each
    // against the flushed projector and the unflushed survivors:
    // u -= P·u + Σ_w w⟨w|u⟩.
    for (int pass = 0; pass < 2; ++pass) {
      if (projector_.is_zero() && flushed == basis_.size()) break;
      Edge pu = projector_.is_zero() ? mgr.zero() : project(u);
      for (std::size_t i = flushed; i < basis_.size(); ++i) {
        pu = mgr.add(pu, mgr.scale(basis_[i], inner(mgr, basis_[i], u, n_)));
      }
      u = mgr.add(u, mgr.scale(pu, cplx{-1.0, 0.0}));
    }
    const double res2 = inner(mgr, u, u, n_).real();
    if (res2 <= kResidualTol2) continue;

    // A survivor past 2^n orthonormal vectors is not orthogonal to the
    // basis: the run is numerically broken, and a larger-than-space answer
    // is wrong.
    if (n_ < 64 && dim() >= (std::uint64_t{1} << n_)) {
      throw InternalError("Gram-Schmidt admitted a survivor past dimension 2^" +
                          std::to_string(n_) + " = " + std::to_string(std::uint64_t{1} << n_) +
                          ": the basis lost orthogonality");
    }
    basis_.push_back(mgr.scale(u, cplx{1.0 / std::sqrt(res2), 0.0}));
    if (basis_.size() - flushed == kFlushSurvivors) flush();
  }
  flush();
  return {basis_.begin() + static_cast<std::ptrdiff_t>(first), basis_.end()};
}

void Subspace::join(const Subspace& other) {
  require(other.n_ == n_ && other.mgr_ == mgr_,
          "join requires subspaces of the same space and manager");
  add_states(other.basis_);
}

bool Subspace::contains(const Edge& state, double tol) const {
  tdd::Manager& mgr = *mgr_;
  const double in_norm = norm(mgr, state, n_);
  if (in_norm <= kZeroNormTol) return true;  // the zero vector is in every subspace
  const Edge u = mgr.scale(state, cplx{1.0 / in_norm, 0.0});
  if (projector_.is_zero()) return false;
  const Edge r = mgr.add(u, mgr.scale(apply_operator(mgr, projector_, u, n_), cplx{-1.0, 0.0}));
  return inner(mgr, r, r, n_).real() <= tol * tol;
}

bool Subspace::same_subspace(const Subspace& other) const {
  if (dim() != other.dim()) return false;
  for (const auto& v : basis_) {
    if (!other.contains(v)) return false;
  }
  for (const auto& v : other.basis_) {
    if (!contains(v)) return false;
  }
  return true;
}

Edge Subspace::project(const Edge& state) const {
  return apply_operator(*mgr_, projector_, state, n_);
}

Subspace Subspace::complement() const {
  require(n_ <= 16, "complement() restricted to 16 qubits (exponential dimension)");
  auto& mgr = *mgr_;
  const Edge rest = mgr.add(identity_operator(mgr, n_), mgr.scale(projector_, cplx{-1.0, 0.0}));
  return from_projector(mgr, n_, rest);
}

Subspace Subspace::intersect(const Subspace& other) const {
  require(other.n_ == n_ && other.mgr_ == mgr_,
          "intersect requires subspaces of the same space and manager");
  Subspace join_of_complements = complement();
  join_of_complements.join(other.complement());
  return join_of_complements.complement();
}

Subspace Subspace::from_stored(tdd::Manager& mgr, std::uint32_t n, std::vector<Edge> basis,
                               const Edge& projector) {
  Subspace s(mgr, n);
  s.basis_ = std::move(basis);
  s.projector_ = projector;
  return s;
}

Subspace Subspace::copy_to(tdd::Manager& mgr) const {
  std::vector<Edge> roots = basis_;
  roots.push_back(projector_);
  std::string text;
  tdd::save_roots(roots, text);
  std::string_view rest = text;
  roots = tdd::load_roots(mgr, rest, roots.size());
  const Edge projector = roots.back();
  roots.pop_back();
  return from_stored(mgr, n_, std::move(roots), projector);
}

Subspace Subspace::from_projector(tdd::Manager& mgr, std::uint32_t n, const Edge& projector) {
  Subspace s(mgr, n);
  // The dimension is tr(P); extracting exactly that many columns avoids a
  // fragile is-the-residual-zero test on floating point data.
  const double tr = operator_trace(mgr, projector, n).real();
  const auto k = static_cast<std::size_t>(std::llround(tr));
  require(std::abs(tr - static_cast<double>(k)) < 1e-6,
          "projector trace is not close to an integer — not a projector?");

  Edge p = projector;
  const auto op_levels = operator_levels(n);
  for (std::size_t i = 0; i < k; ++i) {
    const auto path = tdd::leftmost_nonzero_assignment(p, op_levels);
    require(path.has_value(), "projector exhausted before reaching its trace");
    // Odd positions of the interleaved (ket, bra) list are the column bits.
    Edge column = p;
    for (std::uint32_t q = 0; q < n; ++q) {
      column = mgr.slice(column, tdd::bra_level(q), (*path)[2 * q + 1]);
    }
    const double cn = norm(mgr, column, n);
    require(cn > 1e-9, "leftmost non-zero column has (near-)zero norm");
    const Edge v = mgr.scale(column, cplx{1.0 / cn, 0.0});
    s.basis_.push_back(v);
    p = mgr.add(p, mgr.scale(outer(mgr, v, v, n), cplx{-1.0, 0.0}));
  }
  s.projector_ = projector;
  return s;
}

}  // namespace qts
