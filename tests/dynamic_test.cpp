#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qts/dynamic.hpp"
#include "qts/image.hpp"
#include "qts/workloads.hpp"
#include "sim/circuit_matrix.hpp"

namespace qts {
namespace {

TEST(Dynamic, OneQubitMeasurementBranches) {
  circ::Circuit prefix(2);
  prefix.h(0);
  const auto ops = measurement_operations(prefix, {0});
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].symbol, "m0");
  EXPECT_EQ(ops[1].symbol, "m1");
  // Branch completeness: Σ_m E_m†E_m = I.
  la::Matrix acc(4, 4);
  for (const auto& op : ops) {
    const auto m = sim::circuit_matrix(op.kraus[0]);
    acc += m.adjoint().mul(m);
  }
  EXPECT_TRUE(acc.approx(la::Matrix::identity(4), 1e-9));
}

TEST(Dynamic, ContinuationReceivesOutcome) {
  circ::Circuit prefix(2);
  std::vector<std::uint64_t> seen;
  const auto ops = measurement_operations(
      prefix, {0, 1}, [&seen](circ::Circuit& c, std::uint64_t outcome) {
        seen.push_back(outcome);
        if (outcome == 3) c.x(0);  // arbitrary correction on |11⟩
      });
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(ops[3].kraus[0].size(), 3u);  // 2 projectors + correction
  EXPECT_EQ(ops[0].kraus[0].size(), 2u);
}

TEST(Dynamic, ReproducesBitFlipCodeOperations) {
  // The helper must generate operations matrix-equal to the hand-built
  // bit-flip-code branches for the observed outcomes.
  tdd::Manager mgr;
  const auto sys = make_bitflip_code_system(mgr);

  circ::Circuit u(6);
  u.cx(0, 3).cx(1, 3).cx(1, 4).cx(2, 4).cx(0, 5).cx(2, 5);
  const auto ops = measurement_operations(
      u, {3, 4, 5}, [](circ::Circuit& c, std::uint64_t m) {
        // Correction + syndrome reset per outcome (see make_bitflip_code_system).
        if (m == 0b101) c.x(0);
        if (m == 0b110) c.x(1);
        if (m == 0b011) c.x(2);
        if ((m >> 2) & 1u) c.x(3);
        if ((m >> 1) & 1u) c.x(4);
        if (m & 1u) c.x(5);
      });
  ASSERT_EQ(ops.size(), 8u);

  // Match by symbol: sys has T000, T101, T110, T011 (in that order).
  const std::vector<std::pair<std::string, std::size_t>> pairs{
      {"m000", 0}, {"m101", 1}, {"m110", 2}, {"m011", 3}};
  for (const auto& [symbol, sys_idx] : pairs) {
    const auto it = std::find_if(ops.begin(), ops.end(),
                                 [&](const auto& op) { return op.symbol == symbol; });
    ASSERT_NE(it, ops.end());
    EXPECT_TRUE(sim::circuit_matrix(it->kraus[0])
                    .approx(sim::circuit_matrix(sys.operations[sys_idx].kraus[0]), 1e-9))
        << symbol;
  }
}

TEST(Dynamic, Validation) {
  circ::Circuit prefix(2);
  EXPECT_THROW((void)measurement_operations(prefix, {}), InvalidArgument);
  EXPECT_THROW((void)measurement_operations(prefix, {5}), InvalidArgument);
}

TEST(SubspaceComplement, DimensionsAndOrthogonality) {
  tdd::Manager mgr;
  const auto s = Subspace::from_states(
      mgr, 3, {ket_basis(mgr, 3, 0), ket_basis(mgr, 3, 5)});
  const Subspace comp = s.complement();
  EXPECT_EQ(comp.dim(), 6u);
  for (const auto& v : comp.basis()) {
    EXPECT_FALSE(s.contains(v));
    EXPECT_NEAR(norm(mgr, s.project(v), 3), 0.0, 1e-8);
  }
  // S ∨ S⊥ is the whole space.
  Subspace join = s;
  join.join(comp);
  EXPECT_EQ(join.dim(), 8u);
}

TEST(SubspaceComplement, OfZeroAndFull) {
  tdd::Manager mgr;
  const Subspace zero(mgr, 2);
  EXPECT_EQ(zero.complement().dim(), 4u);
  Subspace full(mgr, 2);
  for (int i = 0; i < 4; ++i) full.add_state(ket_basis(mgr, 2, i));
  EXPECT_EQ(full.complement().dim(), 0u);
}

TEST(SubspaceComplement, IdentityOperatorIsLinearSize) {
  tdd::Manager mgr;
  const auto id = identity_operator(mgr, 200);
  EXPECT_EQ(tdd::node_count(id), 3u * 200u);  // ket node + two bra nodes per qubit
  EXPECT_EQ(operator_trace(mgr, id, 200), cplx(std::ldexp(1.0, 200), 0.0));
}

}  // namespace
}  // namespace qts

namespace qts {
namespace {

TEST(SubspaceIntersect, LatticeMeetBasics) {
  tdd::Manager mgr;
  const auto s01 = Subspace::from_states(
      mgr, 2, {ket_basis(mgr, 2, 0), ket_basis(mgr, 2, 1)});
  const auto s02 = Subspace::from_states(
      mgr, 2, {ket_basis(mgr, 2, 0), ket_basis(mgr, 2, 2)});
  const Subspace meet = s01.intersect(s02);
  ASSERT_EQ(meet.dim(), 1u);
  EXPECT_TRUE(meet.contains(ket_basis(mgr, 2, 0)));

  const auto s3 = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 3)});
  EXPECT_EQ(s01.intersect(s3).dim(), 0u);
  EXPECT_TRUE(s01.intersect(s01).same_subspace(s01));
}

TEST(SubspaceIntersect, NonAxisAlignedMeet) {
  // span{|00⟩+|11⟩, |01⟩} ∧ span{|00⟩+|11⟩, |10⟩} = span{|00⟩+|11⟩}.
  tdd::Manager mgr;
  const double s = std::sqrt(0.5);
  const auto bell = mgr.add(mgr.scale(ket_basis(mgr, 2, 0), cplx{s, 0}),
                            mgr.scale(ket_basis(mgr, 2, 3), cplx{s, 0}));
  const auto a = Subspace::from_states(mgr, 2, {bell, ket_basis(mgr, 2, 1)});
  const auto b = Subspace::from_states(mgr, 2, {bell, ket_basis(mgr, 2, 2)});
  const Subspace meet = a.intersect(b);
  ASSERT_EQ(meet.dim(), 1u);
  EXPECT_TRUE(meet.contains(bell));
}

}  // namespace
}  // namespace qts
