#include <gtest/gtest.h>

#include <array>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/execution_context.hpp"
#include "common/prng.hpp"
#include "linalg/gram_schmidt.hpp"
#include "qts/states.hpp"
#include "qts/subspace.hpp"
#include "tdd/io.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

constexpr double kS2 = std::numbers::sqrt2;

tdd::Edge random_ket(tdd::Manager& mgr, Prng& rng, std::uint32_t n) {
  return ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << n));
}

TEST(States, KetBasisRoundTrip) {
  tdd::Manager mgr;
  const auto e = ket_basis(mgr, 3, 5);
  const auto dense = ket_to_dense(e, 3);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(dense[i]), i == 5 ? 1.0 : 0.0, 1e-12);
  }
}

TEST(States, KetProductBuildsPlusMinus) {
  tdd::Manager mgr;
  const std::array<cplx, 2> plus{cplx{1 / kS2, 0}, cplx{1 / kS2, 0}};
  const std::array<cplx, 2> minus{cplx{1 / kS2, 0}, cplx{-1 / kS2, 0}};
  const std::vector<std::array<cplx, 2>> amps{plus, minus};
  const auto e = ket_product(mgr, amps);
  const auto dense = ket_to_dense(e, 2);
  test::expect_dense_eq(dense, {cplx{0.5, 0}, cplx{-0.5, 0}, cplx{0.5, 0}, cplx{-0.5, 0}});
}

TEST(States, InnerProductAndNorm) {
  tdd::Manager mgr;
  Prng rng(1);
  const auto a_dense = rng.unit_vector(8);
  const auto b_dense = rng.unit_vector(8);
  const auto a = ket_from_dense(mgr, 3, a_dense);
  const auto b = ket_from_dense(mgr, 3, b_dense);
  const cplx expect = test::to_vec(a_dense).dot(test::to_vec(b_dense));
  EXPECT_TRUE(approx_equal(inner(mgr, a, b, 3), expect, 1e-9));
  EXPECT_NEAR(norm(mgr, a, 3), 1.0, 1e-9);
}

TEST(States, InnerProductCountsReducedVariables) {
  tdd::Manager mgr;
  // |+⟩^10 reduces to a terminal-only TDD; the norm must still be 1.
  const std::vector<std::array<cplx, 2>> amps(
      10, std::array<cplx, 2>{cplx{1 / kS2, 0}, cplx{1 / kS2, 0}});
  const auto e = ket_product(mgr, amps);
  EXPECT_NEAR(norm(mgr, e, 10), 1.0, 1e-9);
}

TEST(States, OuterAndTrace) {
  tdd::Manager mgr;
  Prng rng(2);
  const auto v = random_ket(mgr, rng, 2);
  const auto p = outer(mgr, v, v, 2);
  EXPECT_NEAR(operator_trace(mgr, p, 2).real(), 1.0, 1e-9);
  const auto m = operator_to_dense(p, 2);
  EXPECT_TRUE(m.is_projector(1e-8));
}

TEST(States, ApplyOperatorMatchesDense) {
  tdd::Manager mgr;
  Prng rng(3);
  const auto vd = rng.unit_vector(8);
  const auto wd = rng.unit_vector(8);
  const auto v = ket_from_dense(mgr, 3, vd);
  const auto w = ket_from_dense(mgr, 3, wd);
  const auto p = outer(mgr, v, w, 3);  // |v⟩⟨w|
  const auto x = random_ket(mgr, rng, 3);
  const auto applied = apply_operator(mgr, p, x, 3);
  // |v⟩⟨w|x⟩ densely:
  const cplx overlap = test::to_vec(wd).dot(test::to_vec(ket_to_dense(x, 3)));
  const auto expect = test::to_vec(vd) * overlap;
  test::expect_dense_eq(ket_to_dense(applied, 3), expect.data(), 1e-8);
}

TEST(States, OperatorDenseRoundTrip) {
  tdd::Manager mgr;
  Prng rng(4);
  la::Matrix m(8, 8);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) m(r, c) = rng.complex_unit_box();
  }
  const auto op = operator_from_dense(mgr, m, 3);
  EXPECT_TRUE(operator_to_dense(op, 3).approx(m, 1e-9));
  EXPECT_TRUE(approx_equal(operator_trace(mgr, op, 3), m.trace(), 1e-8));
}

TEST(States, OperatorTraceMatchesDenseOnRandomOperators) {
  // The diagonal walk against the dense trace: random full operators (some
  // entries zero, so diagrams skip levels), and operators that skip whole
  // qubits (the identity, a terminal, a product that ignores a qubit).
  tdd::Manager mgr;
  Prng rng(41);
  for (std::uint32_t n = 1; n <= 4; ++n) {
    const std::size_t dim = std::size_t{1} << n;
    for (int rep = 0; rep < 6; ++rep) {
      la::Matrix m(dim, dim);
      for (std::size_t r = 0; r < dim; ++r) {
        for (std::size_t c = 0; c < dim; ++c) {
          m(r, c) = rng.uniform() < 0.3 ? cplx{0.0, 0.0} : rng.complex_unit_box();
        }
      }
      const auto op = operator_from_dense(mgr, m, n);
      EXPECT_TRUE(approx_equal(operator_trace(mgr, op, n), m.trace(), 1e-9)) << n << "/" << rep;
    }
    const auto id = identity_operator(mgr, n);
    EXPECT_EQ(operator_trace(mgr, id, n), cplx(static_cast<double>(dim), 0.0));
    const auto scalar = mgr.terminal(cplx{0.5, -2.0});
    EXPECT_TRUE(approx_equal(operator_trace(mgr, scalar, n),
                             cplx{0.5, -2.0} * static_cast<double>(dim), 1e-12));
    const auto v = random_ket(mgr, rng, n);
    const auto w = random_ket(mgr, rng, n);
    const auto vw = outer(mgr, v, w, n);
    EXPECT_TRUE(approx_equal(operator_trace(mgr, vw, n),
                             operator_to_dense(vw, n).trace(), 1e-9));
  }
  // |0⟩⟨0| on qubit 1 of 3, nothing on qubits 0 and 2: trace 4.
  const auto p1 = mgr.make_node(tdd::state_level(1),
                                mgr.literal(tdd::bra_level(1), cplx{1, 0}, cplx{0, 0}),
                                mgr.zero());
  EXPECT_EQ(operator_trace(mgr, p1, 3), cplx(4.0, 0.0));
  // A level that is not an operator index does not reduce to a scalar.
  EXPECT_THROW((void)operator_trace(mgr, mgr.literal(tdd::wire_level(0, 3), cplx{1, 0},
                                                     cplx{1, 1}), 2),
               Error);
}

TEST(Subspace, StartsEmpty) {
  tdd::Manager mgr;
  const Subspace s(mgr, 3);
  EXPECT_EQ(s.dim(), 0u);
  EXPECT_TRUE(s.projector().is_zero());
}

TEST(Subspace, AddStateGrowsAndRejectsDependents) {
  tdd::Manager mgr;
  Subspace s(mgr, 2);
  const auto v0 = ket_basis(mgr, 2, 0);
  const auto v1 = ket_basis(mgr, 2, 1);
  EXPECT_TRUE(s.add_state(v0));
  EXPECT_FALSE(s.add_state(v0));
  EXPECT_FALSE(s.add_state(mgr.scale(v0, cplx{0.0, 2.0})));  // same ray
  EXPECT_TRUE(s.add_state(v1));
  EXPECT_EQ(s.dim(), 2u);
  // |+⟩ on qubit 1 ⊗ |0⟩ lives inside span{|00⟩, |01⟩}.
  const auto mixed = mgr.add(mgr.scale(v0, cplx{1 / kS2, 0}), mgr.scale(v1, cplx{1 / kS2, 0}));
  EXPECT_FALSE(s.add_state(mixed));
  EXPECT_TRUE(s.contains(mixed));
  EXPECT_FALSE(s.contains(ket_basis(mgr, 2, 2)));
}

TEST(Subspace, AddStateIgnoresZero) {
  tdd::Manager mgr;
  Subspace s(mgr, 2);
  EXPECT_FALSE(s.add_state(mgr.zero()));
  EXPECT_TRUE(s.contains(mgr.zero()));
}

TEST(Subspace, ProjectorIsProjectorMatrix) {
  tdd::Manager mgr;
  Prng rng(7);
  Subspace s(mgr, 3);
  for (int i = 0; i < 3; ++i) s.add_state(random_ket(mgr, rng, 3));
  EXPECT_EQ(s.dim(), 3u);
  const auto m = operator_to_dense(s.projector(), 3);
  EXPECT_TRUE(m.is_projector(1e-7));
  EXPECT_NEAR(m.trace().real(), 3.0, 1e-8);
}

TEST(Subspace, BasisIsOrthonormal) {
  tdd::Manager mgr;
  Prng rng(8);
  Subspace s(mgr, 3);
  for (int i = 0; i < 4; ++i) s.add_state(random_ket(mgr, rng, 3));
  const auto& basis = s.basis();
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = 0; j < basis.size(); ++j) {
      const double expect = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(inner(mgr, basis[i], basis[j], 3)), expect, 1e-7);
    }
  }
}

TEST(Subspace, JoinMatchesPaperExample2) {
  // §IV-B Example 2: joining span{|++−⟩} and span{|11−⟩} must produce the
  // projector of Fig. 1 and a second basis vector proportional to
  // (|00⟩+|01⟩+|10⟩−3|11⟩)|−⟩ (the paper's |v⟩ up to global phase).
  tdd::Manager mgr;
  const std::array<cplx, 2> plus{cplx{1 / kS2, 0}, cplx{1 / kS2, 0}};
  const std::array<cplx, 2> one{cplx{0, 0}, cplx{1, 0}};
  const std::array<cplx, 2> minus{cplx{1 / kS2, 0}, cplx{-1 / kS2, 0}};
  const std::vector<std::array<cplx, 2>> ppm{plus, plus, minus};
  const std::vector<std::array<cplx, 2>> oom{one, one, minus};

  Subspace s = Subspace::from_states(mgr, 3, {ket_product(mgr, ppm)});
  const Subspace t = Subspace::from_states(mgr, 3, {ket_product(mgr, oom)});
  s.join(t);
  ASSERT_EQ(s.dim(), 2u);

  // Second basis vector ∝ (|00⟩+|01⟩+|10⟩−3|11⟩)|−⟩ normalised by 1/(2√3·√2):
  const auto got = ket_to_dense(s.basis()[1], 3);
  const double a = 1.0 / (2.0 * std::sqrt(3.0) * kS2);
  const std::vector<double> pattern{a, -a, a, -a, a, -a, -3 * a, 3 * a};
  // Compare up to global phase via the inner product magnitude.
  cplx overlap{0, 0};
  for (std::size_t i = 0; i < 8; ++i) overlap += std::conj(got[i]) * cplx{pattern[i], 0};
  EXPECT_NEAR(std::abs(overlap), 1.0, 1e-8);

  // The joint projector equals the Fig. 1 matrix P.
  const auto p = operator_to_dense(s.projector(), 3);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      const double expect = ((r + c) % 2 == 0 ? 1.0 : -1.0) / 6.0;
      EXPECT_NEAR(p(r, c).real(), expect, 1e-8) << r << "," << c;
    }
  }
  EXPECT_NEAR(p(6, 6).real(), 0.5, 1e-8);
  EXPECT_NEAR(p(7, 6).real(), -0.5, 1e-8);
  EXPECT_NEAR(p(6, 7).real(), -0.5, 1e-8);
  EXPECT_NEAR(p(7, 7).real(), 0.5, 1e-8);
}

TEST(Subspace, FromProjectorRecoversExample1) {
  // §IV-A Example 1: decomposing the Fig. 1 projector must yield
  // |v1⟩ = (|00⟩+|01⟩+|10⟩)|−⟩/√3 first (leftmost non-zero column), then
  // |v2⟩ = |11−⟩.
  tdd::Manager mgr;
  la::Matrix p(8, 8);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      p(r, c) = cplx{((r + c) % 2 == 0 ? 1.0 : -1.0) / 6.0, 0.0};
    }
  }
  p(6, 6) = cplx{0.5, 0};
  p(7, 7) = cplx{0.5, 0};
  p(6, 7) = cplx{-0.5, 0};
  p(7, 6) = cplx{-0.5, 0};
  const auto proj = operator_from_dense(mgr, p, 3);
  const Subspace s = Subspace::from_projector(mgr, 3, proj);
  ASSERT_EQ(s.dim(), 2u);

  const auto v1 = ket_to_dense(s.basis()[0], 3);
  const double b = 1.0 / (std::sqrt(3.0) * kS2);
  test::expect_dense_eq(
      v1, {cplx{b, 0}, cplx{-b, 0}, cplx{b, 0}, cplx{-b, 0}, cplx{b, 0}, cplx{-b, 0},
           cplx{0, 0}, cplx{0, 0}},
      1e-8);
  const auto v2 = ket_to_dense(s.basis()[1], 3);
  test::expect_dense_eq(v2, {cplx{0, 0}, cplx{0, 0}, cplx{0, 0}, cplx{0, 0}, cplx{0, 0},
                             cplx{0, 0}, cplx{1 / kS2, 0}, cplx{-1 / kS2, 0}},
                        1e-8);
}

TEST(Subspace, FromProjectorRandomRoundTrip) {
  tdd::Manager mgr;
  Prng rng(11);
  for (int iter = 0; iter < 5; ++iter) {
    Subspace s(mgr, 3);
    const int target = 1 + static_cast<int>(rng.uniform_int(0, 3));
    while (s.dim() < static_cast<std::size_t>(target)) s.add_state(random_ket(mgr, rng, 3));
    const Subspace back = Subspace::from_projector(mgr, 3, s.projector());
    EXPECT_EQ(back.dim(), s.dim());
    EXPECT_TRUE(back.same_subspace(s));
  }
}

TEST(Subspace, FromProjectorRejectsNonProjector) {
  tdd::Manager mgr;
  Prng rng(12);
  la::Matrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = rng.complex_unit_box();
  }
  const auto e = operator_from_dense(mgr, m, 2);
  EXPECT_THROW((void)Subspace::from_projector(mgr, 2, e), Error);
}

TEST(Subspace, SameSubspaceDistinguishes) {
  tdd::Manager mgr;
  const auto s1 = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0), ket_basis(mgr, 2, 1)});
  // Same span, different generating vectors:
  const auto mixed0 =
      mgr.add(mgr.scale(ket_basis(mgr, 2, 0), cplx{1 / kS2, 0}),
              mgr.scale(ket_basis(mgr, 2, 1), cplx{1 / kS2, 0}));
  const auto mixed1 =
      mgr.add(mgr.scale(ket_basis(mgr, 2, 0), cplx{1 / kS2, 0}),
              mgr.scale(ket_basis(mgr, 2, 1), cplx{-1 / kS2, 0}));
  const auto s2 = Subspace::from_states(mgr, 2, {mixed0, mixed1});
  EXPECT_TRUE(s1.same_subspace(s2));
  const auto s3 = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0), ket_basis(mgr, 2, 2)});
  EXPECT_FALSE(s1.same_subspace(s3));
}

TEST(Subspace, AddStatesReturnsAppendedResiduals) {
  tdd::Manager mgr;
  Prng rng(21);
  std::vector<tdd::Edge> states;
  for (int i = 0; i < 3; ++i) states.push_back(random_ket(mgr, rng, 3));
  states.push_back(states[0]);  // duplicate: must not survive
  states.push_back(mgr.zero());

  Subspace batched(mgr, 3);
  const auto survivors = batched.add_states(states);
  EXPECT_EQ(survivors.size(), 3u);
  EXPECT_EQ(batched.dim(), 3u);
  // The survivors ARE the appended basis vectors, in order (hash-consing
  // makes this literal node equality).
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(survivors[i].node, batched.basis()[i].node);
    EXPECT_TRUE(tdd::same_tensor(survivors[i], batched.basis()[i]));
  }

  // One batched pass is equivalent to repeated add_state.
  Subspace incremental(mgr, 3);
  for (const auto& v : states) incremental.add_state(v);
  EXPECT_TRUE(batched.same_subspace(incremental));
  EXPECT_TRUE(batched.add_states({}).empty());
}

TEST(Subspace, AddStatesSkipsScalarMultiplesByNode) {
  // Two independent, non-orthogonal 3-qubit product kets.
  const auto kets = [](tdd::Manager& mgr) {
    const std::array<cplx, 2> plus{cplx{1 / kS2, 0}, cplx{1 / kS2, 0}};
    const std::array<cplx, 2> zero{cplx{1, 0}, cplx{0, 0}};
    const std::array<cplx, 2> tilted{cplx{0.6, 0}, cplx{0, 0.8}};
    const std::vector<std::array<cplx, 2>> k{plus, zero, tilted};
    const std::vector<std::array<cplx, 2>> k2{tilted, plus, plus};
    return std::pair{ket_product(mgr, k), ket_product(mgr, k2)};
  };
  struct Run {
    std::size_t survivors;
    std::string projector;
    std::size_t cont_misses;
  };
  // Each run in a fresh manager, so the op caches start equal.
  const auto run = [&kets](bool with_multiples) {
    ExecutionContext ctx;
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const auto [k, k2] = kets(mgr);
    std::vector<tdd::Edge> states{k};
    if (with_multiples) {
      states.push_back(mgr.scale(k, cplx{2, 0}));
      states.push_back(mgr.scale(k, cplx{0, 1}));
    }
    states.push_back(k2);
    Subspace s(mgr, 3);
    const std::size_t before = ctx.stats().cont_misses;
    const std::size_t survivors = s.add_states(states).size();
    return Run{survivors, tdd::save_string(s.projector()), ctx.stats().cont_misses - before};
  };
  const Run plain = run(false);
  const Run with_multiples = run(true);
  EXPECT_EQ(plain.survivors, 2u);
  EXPECT_EQ(with_multiples.survivors, 2u);
  EXPECT_EQ(with_multiples.projector, plain.projector);
  // The multiples are skipped before any contraction: no norm, no projection.
  EXPECT_EQ(with_multiples.cont_misses, plain.cont_misses);

  tdd::Manager mgr;
  const tdd::Edge k = kets(mgr).first;
  // A negligible copy is rejected as zero and does not hide the real one on
  // the same node.
  Subspace s(mgr, 3);
  const auto survivors = s.add_states({mgr.scale(k, cplx{1e-13, 0}), k});
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].node, k.node);
  EXPECT_TRUE(s.contains(k));
  // The zero edge shares the null node with the constant (uniform) ket, but
  // never enters the skip set.
  Subspace constant(mgr, 3);
  EXPECT_EQ(constant.add_states({mgr.zero(), mgr.scale(mgr.one(), cplx{0.5, 0})}).size(), 1u);
  EXPECT_EQ(constant.dim(), 1u);
}

TEST(Subspace, AddStatesSurvivorsAreOrthonormal) {
  tdd::Manager mgr;
  Prng rng(22);
  Subspace grown(mgr, 3);
  std::vector<tdd::Edge> states;
  for (int i = 0; i < 3; ++i) states.push_back(random_ket(mgr, rng, 3));
  const auto survivors = grown.add_states(states);
  ASSERT_EQ(survivors.size(), 3u);
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    for (std::size_t j = 0; j < survivors.size(); ++j) {
      const double expect = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(inner(mgr, survivors[i], survivors[j], 3)), expect, 1e-7);
    }
  }
}

TEST(Subspace, AddStatesFlushesMatchOneAtATime) {
  // add_states flushes survivors' outer products into the projector 16 at a
  // time; calls that end on a flush boundary and calls that do not must give
  // the span of add_state-at-a-time and a projector that is one.
  constexpr std::uint32_t n = 6;
  // Seeded random amplitudes on |i⟩ and on 2 random basis states: sparse
  // enough that the projectors stay small, generic enough that 64 of them
  // span the space.
  const auto sparse_ket = [](tdd::Manager& mgr, Prng& rng, std::size_t i) {
    std::vector<cplx> amps(std::size_t{1} << n);
    amps[i] = rng.complex_unit_box();
    for (int k = 0; k < 2; ++k) amps[rng.uniform_int(0, (1 << n) - 1)] = rng.complex_unit_box();
    return ket_from_dense(mgr, n, amps);
  };
  const auto check = [](tdd::Manager& mgr, Subspace batched, Subspace incremental,
                        const std::vector<tdd::Edge>& states, const std::string& label) {
    SCOPED_TRACE(label);
    const std::size_t before = batched.dim();
    const auto survivors = batched.add_states(states);
    for (const auto& v : states) incremental.add_state(v);
    EXPECT_EQ(batched.dim(), incremental.dim());
    EXPECT_EQ(survivors.size(), batched.dim() - before);
    EXPECT_TRUE(batched.same_subspace(incremental));
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      for (std::size_t j = 0; j < survivors.size(); ++j) {
        const double expect = i == j ? 1.0 : 0.0;
        EXPECT_NEAR(std::abs(inner(mgr, survivors[i], survivors[j], n)), expect, kEps)
            << i << "," << j;
      }
    }
    EXPECT_TRUE(operator_to_dense(batched.projector(), n).is_projector(kEps));
    EXPECT_NEAR(operator_trace(mgr, batched.projector(), n).real(),
                static_cast<double>(batched.dim()), kEps);
    return survivors.size();
  };
  for (const std::size_t size : {1, 15, 16, 17, 33, 64}) {
    tdd::Manager mgr;
    Prng rng(31 + size);
    // Seeded random kets into the zero subspace: every state survives, so
    // the call's flushes fall every 16 states.
    std::vector<tdd::Edge> kets;
    for (std::size_t i = 0; i < size; ++i) kets.push_back(sparse_ket(mgr, rng, i));
    const std::string random_label = "random x" + std::to_string(size);
    EXPECT_EQ(check(mgr, Subspace(mgr, n), Subspace(mgr, n), kets, random_label), size);

    // Misaligned: a 3-dimensional starting span, and a family that mixes
    // random kets with sums of a starting ket and earlier states, sums of
    // earlier states, scalar copies (skipped by node) and zero, so survivors
    // and flushes no longer line up with the states.
    const std::vector<tdd::Edge> start{ket_basis(mgr, n, 0), ket_basis(mgr, n, 5),
                                       ket_basis(mgr, n, 51)};
    std::vector<tdd::Edge> family;
    for (std::size_t i = 0; i < size; ++i) {
      switch (i % 4) {
        case 1:
          family.push_back(mgr.add(start[i % 3], family.back()));
          break;
        case 2:
          family.push_back(i % 8 == 2 ? mgr.scale(family.back(), cplx{0, -2})
                                      : mgr.add(family[i - 2], family[i - 1]));
          break;
        case 3:
          family.push_back(i % 8 == 3 ? mgr.zero() : sparse_ket(mgr, rng, 63 - i));
          break;
        default:
          family.push_back(sparse_ket(mgr, rng, 63 - i));
      }
    }
    check(mgr, Subspace::from_states(mgr, n, start), Subspace::from_states(mgr, n, start), family,
          "misaligned x" + std::to_string(size));
  }
}

TEST(Subspace, ProjectorContainsMatchesContains) {
  tdd::Manager mgr;
  Prng rng(23);
  Subspace s(mgr, 3);
  for (int i = 0; i < 2; ++i) s.add_state(random_ket(mgr, rng, 3));
  const auto inside = s.project(random_ket(mgr, rng, 3));
  const auto outside = random_ket(mgr, rng, 3);
  EXPECT_TRUE(s.contains(inside));
  // A random ket of the 8-dimensional space misses a 2-dimensional subspace.
  EXPECT_FALSE(s.contains(outside));
  // The zero subspace (zero projector) contains only the zero vector.
  const Subspace zero(mgr, 3);
  EXPECT_TRUE(zero.projector().is_zero());
  EXPECT_FALSE(zero.contains(inside));
  EXPECT_TRUE(zero.contains(mgr.zero()));
}

TEST(Subspace, FullSpaceSaturates) {
  tdd::Manager mgr;
  Prng rng(13);
  Subspace s(mgr, 2);
  for (int i = 0; i < 10; ++i) s.add_state(random_ket(mgr, rng, 2));
  EXPECT_EQ(s.dim(), 4u);
  const auto m = operator_to_dense(s.projector(), 2);
  EXPECT_TRUE(m.approx(la::Matrix::identity(4), 1e-7));
}

}  // namespace
}  // namespace qts
