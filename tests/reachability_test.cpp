#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "circuit/generators.hpp"
#include "circuit/noise.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/workloads.hpp"

namespace qts {
namespace {

TEST(Reachability, GroverInvariantSubspaceIsFixpoint) {
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_grover_system(mgr, 4);
  const auto result = reachable_space(computer, sys, 10);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.space.dim(), 2u);
  EXPECT_TRUE(result.space.same_subspace(sys.initial));
}

TEST(Reachability, GhzReachesTwoDimensions) {
  // |000⟩ → GHZ → (back to |000⟩ or |111⟩-ish states): the GHZ circuit is
  // not its own inverse, so the fixpoint grows past the initial ray.
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_ghz_system(mgr, 3);
  const auto result = reachable_space(computer, sys, 20);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.space.dim(), 2u);
  EXPECT_TRUE(result.space.contains(ket_basis(mgr, 3, 0)));
}

TEST(Reachability, NoisyWalkSaturatesCycle) {
  // Repeated noisy walk steps reach the whole coin ⊗ position space.
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);  // cycle of length 4
  const auto result = reachable_space(computer, sys, 32);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.space.dim(), 8u);
}

TEST(Reachability, NoiselessWalkStaysSmaller) {
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_qrw_system(mgr, 3, 0.0, false, 0);
  const auto result = reachable_space(computer, sys, 32);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.space.dim(), 8u);
  EXPECT_GE(result.space.dim(), 2u);
}

TEST(Reachability, IterationBudgetReported) {
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const auto result = reachable_space(computer, sys, 1);  // too small to converge
  EXPECT_EQ(result.iterations, 1u);
  EXPECT_FALSE(result.converged);
}

/// Noisy QFT6: depolarising noise (p = 0.05) on qubits 0 and 1.  Its
/// Gram-Schmidt residuals nearly cancel, so any sum served wrongly from the
/// add cache leaves a "survivor" that is not orthogonal to the basis.  Its
/// weight ratios pass 9.22e8, where a saturating bucket once put them all
/// on one add-cache key.  Whatever the caches hold, every engine spec must
/// reach exactly the whole 64-dimensional space.
TEST(DimensionGuard, NoisyQft6ReachNeverExceedsTheSpace) {
  for (const std::string spec : {"contraction:4,4", "contraction:6,6", "contraction:6,1",
                                 "contraction:2,2", "contraction:3,5", "addition:1",
                                 "basic"}) {
    tdd::Manager mgr;
    TransitionSystem sys = make_qft_system(mgr, 6);
    for (const std::uint32_t q : {0u, 1u}) {
      sys.operations[0].kraus =
          circ::apply_channel(sys.operations[0].kraus, circ::depolarizing(0.05), q);
    }
    const std::unique_ptr<ImageComputer> engine = make_engine(mgr, spec);
    for (const char* run : {"fresh manager", "warm manager"}) {
      EXPECT_EQ(reachable_space(*engine, sys).space.dim(), 64u) << spec << " (" << run << ")";
    }
  }
}

TEST(Invariant, GroverSubspaceInvariantHolds) {
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_grover_system(mgr, 3);
  const auto result = check_invariant(computer, sys, sys.initial, 10);
  EXPECT_TRUE(result.holds);
  EXPECT_TRUE(result.converged);
}

TEST(Invariant, ViolationDetected) {
  // Claim: GHZ dynamics stay inside span{|000⟩}.  False after one step.
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_ghz_system(mgr, 3);
  const Subspace claim = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 0)});
  const auto result = check_invariant(computer, sys, claim, 10);
  EXPECT_FALSE(result.holds);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Invariant, InitialViolationIsImmediate) {
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_ghz_system(mgr, 3);
  const Subspace elsewhere = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 5)});
  const auto result = check_invariant(computer, sys, elsewhere, 10);
  EXPECT_FALSE(result.holds);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Invariant, BitFlipCodeEventuallyCorrected) {
  // All single-bit-flip corrupted codewords are driven into the code space:
  // the image subspace (for any logical data) stays within span of encoded
  // states joined with |000⟩ syndrome.
  tdd::Manager mgr;
  ContractionImage computer(mgr, 3, 2);
  const auto sys = make_bitflip_code_system(mgr);
  // Invariant: data ⊗ |000⟩ for the correctable inputs — after one step the
  // system lands in span{|000000⟩} and stays there.
  Subspace inv(mgr, 6);
  inv.add_state(ket_basis(mgr, 6, 0));
  inv.add_state(ket_basis(mgr, 6, 0b100000));
  inv.add_state(ket_basis(mgr, 6, 0b010000));
  inv.add_state(ket_basis(mgr, 6, 0b001000));
  const auto result = check_invariant(computer, sys, inv, 5);
  EXPECT_TRUE(result.holds);
}

TEST(Invariant, SystemValidationFailsFast) {
  tdd::Manager mgr;
  BasicImage computer(mgr);
  TransitionSystem bad{3, Subspace(mgr, 3), {}};
  EXPECT_THROW((void)reachable_space(computer, bad, 5), InvalidArgument);
  TransitionSystem widths{3, Subspace(mgr, 3), {QuantumOperation{"w", {circ::Circuit(2)}}}};
  EXPECT_THROW((void)reachable_space(computer, widths, 5), InvalidArgument);
}

}  // namespace
}  // namespace qts
