#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "common/error.hpp"
#include "linalg/gram_schmidt.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace qts::la {
namespace {

const cplx kOne{1.0, 0.0};
const cplx kI{0.0, 1.0};

TEST(Vector, BasisIsOneHot) {
  const auto v = Vector::basis(4, 2);
  EXPECT_EQ(v[0], cplx{});
  EXPECT_EQ(v[2], kOne);
  EXPECT_NEAR(v.norm(), 1.0, 1e-15);
}

TEST(Vector, DotIsConjugateLinearInFirstArgument) {
  const Vector a{kI, kOne};
  const Vector b{kOne, kOne};
  // ⟨a|b⟩ = conj(i)*1 + 1*1 = 1 - i.
  EXPECT_TRUE(approx_equal(a.dot(b), cplx{1.0, -1.0}));
}

TEST(Vector, ArithmeticAndNorm) {
  Vector a{kOne, kOne};
  const Vector b{kOne, -kOne};
  a += b;
  EXPECT_TRUE(approx_equal(a[0], cplx{2.0, 0.0}));
  EXPECT_TRUE(approx_equal(a[1], cplx{0.0, 0.0}));
  EXPECT_NEAR(b.norm(), std::sqrt(2.0), 1e-12);
}

TEST(Vector, AxpyAddsAScaledVectorInPlace) {
  Vector y{kOne, cplx{2.0, 0.0}};
  const Vector x{kI, kOne};
  y.axpy(cplx{0.0, 2.0}, x);  // y += 2i·x
  EXPECT_EQ(y[0], cplx(-1.0, 0.0));
  EXPECT_EQ(y[1], cplx(2.0, 2.0));
  y.axpy(cplx{}, x);  // a zero coefficient leaves y as it is
  EXPECT_EQ(y[1], cplx(2.0, 2.0));
  Vector shorter(1);
  EXPECT_THROW(shorter.axpy(kOne, x), qts::InvalidArgument);
  EXPECT_THROW(y.axpy(kOne, Vector(3)), qts::InvalidArgument);
}

TEST(Vector, NormalizedThrowsOnZero) {
  const Vector z(3);
  EXPECT_THROW((void)z.normalized(), qts::InvalidArgument);
}

TEST(Vector, SameRayDetectsGlobalPhase) {
  const Vector a{kOne, kI};
  Vector b = a;
  b *= std::polar(1.0, 0.7);
  EXPECT_TRUE(a.same_ray(b));
  const Vector c{kOne, -kI};
  EXPECT_FALSE(a.same_ray(c));
}

TEST(Vector, KronMatchesManual) {
  const Vector a{kOne, cplx{2.0, 0.0}};
  const Vector b{cplx{3.0, 0.0}, cplx{4.0, 0.0}};
  const auto k = a.kron(b);
  ASSERT_EQ(k.size(), 4u);
  EXPECT_TRUE(approx_equal(k[0], cplx{3.0, 0.0}));
  EXPECT_TRUE(approx_equal(k[3], cplx{8.0, 0.0}));
}

TEST(Matrix, IdentityAndTrace) {
  const auto i4 = Matrix::identity(4);
  EXPECT_TRUE(approx_equal(i4.trace(), cplx{4.0, 0.0}));
  EXPECT_TRUE(i4.is_unitary());
  EXPECT_TRUE(i4.is_projector());
}

TEST(Matrix, MulMatchesManual) {
  const Matrix a{{kOne, cplx{2.0, 0.0}}, {cplx{3.0, 0.0}, cplx{4.0, 0.0}}};
  const Matrix b{{cplx{0.0, 0.0}, kOne}, {kOne, cplx{0.0, 0.0}}};
  const auto c = a.mul(b);
  EXPECT_TRUE(approx_equal(c(0, 0), cplx{2.0, 0.0}));
  EXPECT_TRUE(approx_equal(c(0, 1), kOne));
  EXPECT_TRUE(approx_equal(c(1, 0), cplx{4.0, 0.0}));
}

TEST(Matrix, AdjointConjugatesAndTransposes) {
  const Matrix a{{kI, kOne}, {cplx{}, cplx{2.0, 1.0}}};
  const auto ad = a.adjoint();
  EXPECT_TRUE(approx_equal(ad(0, 0), -kI));
  EXPECT_TRUE(approx_equal(ad(1, 0), kOne));
  EXPECT_TRUE(approx_equal(ad(1, 1), cplx{2.0, -1.0}));
}

TEST(Matrix, KronShape) {
  const auto k = Matrix::identity(2).kron(Matrix::identity(4));
  EXPECT_EQ(k.rows(), 8u);
  EXPECT_TRUE(k.approx(Matrix::identity(8)));
}

TEST(Matrix, OuterIsRankOneProjector) {
  const Vector v = Vector{kOne, kI}.normalized();
  const auto p = Matrix::outer(v, v);
  EXPECT_TRUE(p.is_projector());
  EXPECT_EQ(p.rank(), 1u);
}

TEST(Matrix, MatVecAgreesWithColumns) {
  Prng rng(3);
  Matrix m(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = rng.complex_unit_box();
  }
  for (std::size_t c = 0; c < 4; ++c) {
    const auto mv = m.mul(Vector::basis(4, c));
    EXPECT_TRUE(mv.approx(m.column(c)));
  }
}

TEST(Matrix, RankOfSingularMatrix) {
  Matrix m(3, 3);
  m(0, 0) = kOne;
  m(1, 1) = kOne;
  // third column zero
  EXPECT_EQ(m.rank(), 2u);
}

TEST(GramSchmidt, OrthonormalizeDropsDependents) {
  const Vector a{kOne, kOne, cplx{}};
  const Vector b{kOne, -kOne, cplx{}};
  Vector c = a;  // dependent on a
  c *= cplx{2.0, 0.0};
  const auto basis = orthonormalize({a, b, c});
  ASSERT_EQ(basis.size(), 2u);
  EXPECT_NEAR(std::abs(basis[0].dot(basis[1])), 0.0, 1e-10);
  EXPECT_NEAR(basis[0].norm(), 1.0, 1e-12);
}

TEST(GramSchmidt, ProjectorOntoSpan) {
  const Vector a{kOne, cplx{}, cplx{}};
  const Vector b{cplx{}, kOne, cplx{}};
  const auto p = projector_onto({a, b});
  EXPECT_TRUE(p.is_projector());
  EXPECT_NEAR(p.trace().real(), 2.0, 1e-10);
}

TEST(GramSchmidt, InSpanAndSameSpan) {
  const Vector a{kOne, kOne};
  const Vector b{kOne, -kOne};
  const Vector e0{kOne, cplx{}};
  EXPECT_TRUE(in_span(e0, {a, b}));
  EXPECT_TRUE(same_span({a, b}, {e0, Vector{cplx{}, kOne}}));
  EXPECT_FALSE(same_span({a}, {e0}));
}

TEST(GramSchmidt, JoinBasesGrowsSpan) {
  const Vector a{kOne, cplx{}, cplx{}};
  const Vector b{cplx{}, kOne, cplx{}};
  const auto joined = join_bases({a}, {b});
  EXPECT_EQ(joined.size(), 2u);
  const auto same = join_bases({a}, {a});
  EXPECT_EQ(same.size(), 1u);
}

TEST(GramSchmidt, RandomProjectorIdempotent) {
  Prng rng(17);
  std::vector<Vector> vs;
  for (int i = 0; i < 3; ++i) vs.emplace_back(rng.unit_vector(8));
  const auto p = projector_onto(vs);
  EXPECT_TRUE(p.is_projector(1e-9));
  EXPECT_EQ(static_cast<std::size_t>(std::llround(p.trace().real())), p.rank());
}

}  // namespace
}  // namespace qts::la
