/// Tests for sim::BasisSubspace, the one Gram-Schmidt mirror of the TDD
/// subspace over the dense (la::Vector) and sparse (sim::SparseState)
/// simulator states: the same span and survivor count as qts::Subspace,
/// orthonormal residuals, the early exit once the basis spans the whole
/// space, and the per-representation qubit range and width checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "qts/encode.hpp"
#include "qts/states.hpp"
#include "qts/subspace.hpp"
#include "sim/basis_subspace.hpp"

namespace qts {
namespace {

/// How a check builds and decodes kets in each representation.
template <class State>
struct Kets;

template <>
struct Kets<la::Vector> {
  static la::Vector decode(const tdd::Edge& ket, std::uint32_t n) { return decode_ket(ket, n); }
  static la::Vector from(std::uint32_t, const std::vector<cplx>& amps) { return la::Vector(amps); }
};

template <>
struct Kets<sim::SparseState> {
  static sim::SparseState decode(const tdd::Edge& ket, std::uint32_t n) {
    return decode_ket_sparse(ket, n);
  }
  static sim::SparseState from(std::uint32_t n, const std::vector<cplx>& amps) {
    sim::SparseState s(n);
    for (std::uint64_t i = 0; i < amps.size(); ++i) s.set(i, amps[i]);
    return s;
  }
};

template <class State>
void expect_orthonormal(const std::vector<State>& vs, double tol) {
  for (std::size_t i = 0; i < vs.size(); ++i) {
    EXPECT_NEAR(vs[i].norm(), 1.0, tol);
    for (std::size_t j = 0; j < i; ++j) EXPECT_NEAR(std::abs(vs[i].dot(vs[j])), 0.0, tol);
  }
}

template <class State>
void check_MirrorsTheTddSubspace() {
  using Space = sim::BasisSubspace<State>;
  tdd::Manager mgr;
  const std::uint32_t n = 3;
  // A spanning family with deliberate dependence and an unnormalised entry.
  std::vector<tdd::Edge> kets = {
      ket_basis(mgr, n, 0), ket_basis(mgr, n, 1), mgr.scale(ket_basis(mgr, n, 0), cplx{2.0, 0.0}),
      mgr.add(ket_basis(mgr, n, 0), ket_basis(mgr, n, 5))};

  Subspace tdd_space(mgr, n);
  Space space(n);
  std::vector<State> mirrored;
  for (const auto& k : kets) mirrored.push_back(Kets<State>::decode(k, n));

  const auto tdd_survivors = tdd_space.add_states(kets);
  const auto survivors = space.add_states(mirrored);
  EXPECT_EQ(tdd_space.dim(), space.dim());
  EXPECT_EQ(tdd_survivors.size(), survivors.size());

  // The two bases span the same subspace: decode the TDD basis and check
  // mutual containment in the mirror's representation.
  std::vector<State> decoded;
  for (const auto& b : tdd_space.basis()) decoded.push_back(Kets<State>::decode(b, n));
  EXPECT_TRUE(space.same_subspace(Space::from_states(n, decoded)));

  // Membership agrees on in-span, out-of-span and zero vectors.
  EXPECT_TRUE(space.contains(Kets<State>::decode(kets[3], n)));
  EXPECT_FALSE(space.contains(Kets<State>::decode(ket_basis(mgr, n, 7), n)));
  EXPECT_TRUE(space.contains(Kets<State>::from(n, std::vector<cplx>(8))));  // zero vector
}

template <class State>
void check_ResidualsAreOrthonormal() {
  const cplx one{1.0, 0.0};
  const cplx two{2.0, 0.0};
  const cplx zero{0.0, 0.0};
  sim::BasisSubspace<State> s(2);
  const std::vector<State> states = {Kets<State>::from(2, {one, one, zero, zero}),
                                     Kets<State>::from(2, {one, zero, zero, zero}),
                                     Kets<State>::from(2, {one, two, zero, zero})};
  const auto residuals = s.add_states(states);
  ASSERT_EQ(residuals.size(), 2u);  // the third is dependent
  expect_orthonormal(residuals, 1e-12);
}

template <class State>
void check_StopsOnceTheBasisSpansTheSpace() {
  // 2^n + 8 random kets: the first 2^n already span the space, so the
  // basis saturates at dim 2^n and every later add_state reports nothing
  // new.
  const std::uint32_t n = 3;
  const std::size_t full = std::size_t{1} << n;
  std::mt19937 rng(7);
  std::normal_distribution<double> gauss;
  std::vector<State> states;
  for (std::size_t k = 0; k < full + 8; ++k) {
    std::vector<cplx> amps(full);
    for (auto& a : amps) a = cplx{gauss(rng), gauss(rng)};
    states.push_back(Kets<State>::from(n, amps));
  }

  sim::BasisSubspace<State> s(n);
  const std::vector<State> first(states.begin(), states.begin() + static_cast<long>(full));
  const auto residuals = s.add_states(first);
  EXPECT_EQ(residuals.size(), full);
  EXPECT_EQ(s.dim(), full);
  expect_orthonormal(residuals, 1e-12);
  for (std::size_t k = full; k < states.size(); ++k) {
    EXPECT_FALSE(s.add_state(states[k])) << k;
    EXPECT_TRUE(s.contains(states[k])) << k;
  }
  EXPECT_EQ(s.dim(), full);
}

template <class State>
void check_RejectsAWidthMismatch() {
  sim::BasisSubspace<State> s(2);
  const State wider = Kets<State>::from(3, {cplx{1.0, 0.0}, {}, {}, {}, {}, {}, {}, {}});
  EXPECT_THROW(s.add_state(wider), InvalidArgument);
  EXPECT_THROW((void)s.contains(wider), InvalidArgument);
  EXPECT_EQ(s.dim(), 0u);
}

// Each check runs once per representation, under the DenseSubspace and
// SparseSubspace suites.
#define QTS_BASIS_SUBSPACE_TEST(name)                             \
  TEST(DenseSubspace, name) { check_##name<la::Vector>(); }       \
  TEST(SparseSubspace, name) { check_##name<sim::SparseState>(); }

QTS_BASIS_SUBSPACE_TEST(MirrorsTheTddSubspace)
QTS_BASIS_SUBSPACE_TEST(ResidualsAreOrthonormal)
QTS_BASIS_SUBSPACE_TEST(StopsOnceTheBasisSpansTheSpace)
QTS_BASIS_SUBSPACE_TEST(RejectsAWidthMismatch)

#undef QTS_BASIS_SUBSPACE_TEST

TEST(BasisSubspaceRange, DenseRejectsMoreThan30Qubits) {
  EXPECT_THROW((void)sim::BasisSubspace<la::Vector>(31), InvalidArgument);
  EXPECT_NO_THROW((void)sim::BasisSubspace<la::Vector>(0));
}

TEST(BasisSubspaceRange, SparseTakesABasisStateAt64Qubits) {
  // No 2^64 saturation bound exists at n = 64; the exit must not shift by
  // the register width.
  EXPECT_THROW((void)sim::BasisSubspace<sim::SparseState>(0), InvalidArgument);
  EXPECT_THROW((void)sim::BasisSubspace<sim::SparseState>(65), InvalidArgument);
  sim::BasisSubspace<sim::SparseState> s(64);
  const auto top = sim::SparseState::basis(64, std::uint64_t{1} << 63);
  EXPECT_TRUE(s.add_state(top));
  EXPECT_TRUE(s.add_state(sim::SparseState::basis(64, 1)));
  EXPECT_FALSE(s.add_state(top));
  EXPECT_EQ(s.dim(), 2u);
  EXPECT_TRUE(s.contains(top));
}

}  // namespace
}  // namespace qts
