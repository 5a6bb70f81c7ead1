#include <gtest/gtest.h>

#include "common/error.hpp"
#include "qts/properties.hpp"
#include "qts/workloads.hpp"

namespace qts {
namespace {

TEST(Properties, OverlapsBasics) {
  tdd::Manager mgr;
  const auto s0 = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0)});
  const auto s1 = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 1)});
  EXPECT_FALSE(overlaps(s0, s1));
  EXPECT_TRUE(overlaps(s0, s0));
  // |+⟩|0⟩ overlaps both |00⟩ and |10⟩ rays.
  const auto plus = mgr.add(mgr.scale(ket_basis(mgr, 2, 0), cplx{0.7071, 0}),
                            mgr.scale(ket_basis(mgr, 2, 2), cplx{0.7071, 0}));
  const auto sp = Subspace::from_states(mgr, 2, {plus});
  EXPECT_TRUE(overlaps(sp, s0));
  EXPECT_FALSE(overlaps(sp, s1));
  const Subspace empty(mgr, 2);
  EXPECT_FALSE(overlaps(empty, s0));
}

TEST(Properties, OverlapsRejectsWidthMismatch) {
  tdd::Manager mgr;
  const auto a = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0)});
  const auto b = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 0)});
  EXPECT_THROW((void)overlaps(a, b), InvalidArgument);
}

TEST(Properties, ContainedIn) {
  tdd::Manager mgr;
  const auto small = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0)});
  const auto big =
      Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0), ket_basis(mgr, 2, 1)});
  EXPECT_TRUE(contained_in(small, big));
  EXPECT_FALSE(contained_in(big, small));
  const Subspace empty(mgr, 2);
  EXPECT_TRUE(contained_in(empty, small));
}

TEST(Properties, EventuallyReachesGhzTail) {
  // From |000⟩ the GHZ dynamics eventually overlap |111⟩.
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_ghz_system(mgr, 3);
  const auto target = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 7)});
  const auto result = eventually_reaches(computer, sys, target, 10);
  EXPECT_TRUE(result.possible);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Properties, EventuallyImmediateWhenInitialOverlaps) {
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_ghz_system(mgr, 3);
  const auto result = eventually_reaches(computer, sys, sys.initial, 10);
  EXPECT_TRUE(result.possible);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Properties, EventuallyNeverForInvariantOrthogonal) {
  // Grover dynamics stay in span{|++−⟩, |11−⟩}; a target orthogonal to it
  // (|000⟩ component? |++−⟩ has support there...).  Use |..⟩|+⟩ states:
  // all reachable states have the last qubit in |−⟩, so last-qubit |+⟩
  // targets are unreachable.
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_grover_system(mgr, 3);
  const double s = std::sqrt(0.5);
  const auto plus_last = mgr.add(mgr.scale(ket_basis(mgr, 3, 0), cplx{s, 0}),
                                 mgr.scale(ket_basis(mgr, 3, 1), cplx{s, 0}));
  const auto target = Subspace::from_states(mgr, 3, {plus_last});
  const auto result = eventually_reaches(computer, sys, target, 10);
  EXPECT_FALSE(result.possible);
  EXPECT_TRUE(result.converged);
}

TEST(Properties, GcBoundedReachabilityMatchesPlain) {
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const auto plain = reachable_space(computer, sys, 40);

  tdd::Manager mgr2;
  ContractionImage computer2(mgr2, 2, 2);
  computer2.context().set_adaptive_gc(true, 1, 1.0);  // GC every iteration — worst case
  const auto sys2 = make_qrw_system(mgr2, 3, 0.3, true, 0);
  const auto gced = reachable_space(computer2, sys2, 40);
  EXPECT_TRUE(gced.converged);
  EXPECT_EQ(gced.space.dim(), plain.space.dim());
  EXPECT_EQ(gced.iterations, plain.iterations);
}

}  // namespace
}  // namespace qts
