/// Tests for the three image computation algorithms: agreement with the
/// dense oracle, agreement with each other, and the paper's worked examples.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/error.hpp"
#include "circuit/generators.hpp"
#include "common/prng.hpp"
#include "linalg/gram_schmidt.hpp"
#include "qts/engine.hpp"
#include "qts/workloads.hpp"
#include "sim/circuit_matrix.hpp"
#include "sim/statevector.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

/// Engine spec per test parameter; the parameter doubles as the test name.
std::unique_ptr<ImageComputer> make_computer(tdd::Manager& mgr, const std::string& kind) {
  if (kind == "basic") return make_engine(mgr, "basic");
  if (kind == "addition") return make_engine(mgr, "addition:1");
  if (kind == "addition2") return make_engine(mgr, "addition:2");
  return make_engine(mgr, "contraction:2,2");
}

/// Dense oracle image of a subspace under an operation.
std::vector<la::Vector> oracle_image(const QuantumOperation& op, const Subspace& s) {
  std::vector<la::Vector> basis;
  for (const auto& b : s.basis()) {
    basis.emplace_back(ket_to_dense(b, s.num_qubits()));
  }
  return sim::dense_image(op.kraus, basis);
}

/// EXPECT that a TDD subspace equals the span of dense vectors.
void expect_same_span(const Subspace& s, const std::vector<la::Vector>& dense) {
  ASSERT_EQ(s.dim(), dense.size());
  std::vector<la::Vector> got;
  for (const auto& b : s.basis()) got.emplace_back(ket_to_dense(b, s.num_qubits()));
  EXPECT_TRUE(la::same_span(got, dense, 1e-7));
}

class ImageAlgos : public ::testing::TestWithParam<std::string> {};

TEST_P(ImageAlgos, MatchesOracleOnRandomUnitaries) {
  Prng rng(101);
  for (int iter = 0; iter < 6; ++iter) {
    tdd::Manager mgr;
    auto computer = make_computer(mgr, GetParam());
    const auto c = circ::make_random(3, 15, rng);
    QuantumOperation op{"u", {c}};
    Subspace s(mgr, 3);
    const int dim = 1 + static_cast<int>(rng.uniform_int(0, 2));
    while (s.dim() < static_cast<std::size_t>(dim)) {
      s.add_state(ket_from_dense(mgr, 3, rng.unit_vector(8)));
    }
    const Subspace img = computer->image(op, s);
    expect_same_span(img, oracle_image(op, s));
  }
}

TEST_P(ImageAlgos, MatchesOracleOnProjectiveKraus) {
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  // Measurement-like operation: project qubit 0, flip conditioned branch.
  circ::Circuit e0(2);
  e0.h(0).proj(0, 0);
  circ::Circuit e1(2);
  e1.h(0).proj(0, 1).x(1);
  QuantumOperation op{"measure", {e0, e1}};
  const Subspace s = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 0)});
  const Subspace img = computer->image(op, s);
  expect_same_span(img, oracle_image(op, s));
}

TEST_P(ImageAlgos, MatchesOracleOnScaledKraus) {
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  circ::Circuit a(2);
  a.h(0);
  a.set_global_factor(cplx{0.6, 0.0});
  circ::Circuit b(2);
  b.x(0).x(1);
  b.set_global_factor(cplx{0.8, 0.0});
  QuantumOperation op{"noise", {a, b}};
  const Subspace s = Subspace::from_states(mgr, 2, {ket_basis(mgr, 2, 1)});
  const Subspace img = computer->image(op, s);
  expect_same_span(img, oracle_image(op, s));
}

TEST_P(ImageAlgos, GroverInvarianceHolds) {
  // §III-A-1: T(S) = S for S = span{|+…+−⟩, |1…1−⟩}.
  for (std::uint32_t n : {3u, 4u, 5u}) {
    tdd::Manager mgr;
    auto computer = make_computer(mgr, GetParam());
    const auto sys = make_grover_system(mgr, n);
    const Subspace img = computer->image(sys, sys.initial);
    EXPECT_TRUE(img.same_subspace(sys.initial)) << "n = " << n;
  }
}

TEST_P(ImageAlgos, BitFlipCodeCorrects) {
  // §III-A-2: T(span{|100⟩,|010⟩,|001⟩} ⊗ |000⟩) = span{|000000⟩}.
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  const auto sys = make_bitflip_code_system(mgr);
  const Subspace img = computer->image(sys, sys.initial);
  ASSERT_EQ(img.dim(), 1u);
  EXPECT_TRUE(img.contains(ket_basis(mgr, 6, 0)));
}

TEST_P(ImageAlgos, BitFlipCodePreservesLogicalStates) {
  // An encoded logical state with no error must come back unchanged.
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  const auto sys = make_bitflip_code_system(mgr);
  const Subspace logical = Subspace::from_states(
      mgr, 6, {ket_basis(mgr, 6, 0b000000), ket_basis(mgr, 6, 0b111000)});
  const Subspace img = computer->image(sys, logical);
  EXPECT_TRUE(img.same_subspace(logical));
}

TEST_P(ImageAlgos, NoisyWalkImageStaysInsidePaperSpan) {
  // §III-A-3: T(span{|0⟩|i⟩}) ⊆ span{|0⟩|i−1⟩, |1⟩|i+1⟩}.  For a basis coin
  // input the bit-flip acts on H|0⟩ = |+⟩, an X eigenstate, so both Kraus
  // branches give the SAME ray and the image is one-dimensional — strictly
  // inside the two-dimensional span the paper quotes ("a bit-flip error
  // will not influence the reachable subspace significantly").
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  const std::uint64_t i = 3;
  const auto sys = make_qrw_system(mgr, 4, 0.25, true, i);
  const Subspace img = computer->image(sys, sys.initial);
  ASSERT_EQ(img.dim(), 1u);
  const auto paper_span = Subspace::from_states(
      mgr, 4, {ket_basis(mgr, 4, (i + 7) % 8), ket_basis(mgr, 4, 8 + (i + 1) % 8)});
  for (const auto& v : img.basis()) EXPECT_TRUE(paper_span.contains(v));
}

TEST_P(ImageAlgos, NoisyWalkSuperposedCoinSplitsImage) {
  // With a coin state that is NOT an X eigenstate after H (e.g. |+i⟩), the
  // two Kraus branches produce different rays and the image is 2-dim while
  // the noiseless walk's image stays 1-dim.
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  const auto noisy = make_qrw_system(mgr, 4, 0.25, true, 0);
  const auto clean = make_qrw_system(mgr, 4, 0.0, false, 0);
  // (|0⟩ + i|1⟩)/√2 ⊗ |011⟩:
  const double s = std::sqrt(0.5);
  const auto ys = mgr.add(mgr.scale(ket_basis(mgr, 4, 3), cplx{s, 0.0}),
                          mgr.scale(ket_basis(mgr, 4, 8 + 3), cplx{0.0, s}));
  const Subspace in = Subspace::from_states(mgr, 4, {ys});
  EXPECT_EQ(computer->image(noisy.operations[0], in).dim(), 2u);
  EXPECT_EQ(computer->image(clean.operations[0], in).dim(), 1u);
}

TEST_P(ImageAlgos, EmptySubspaceHasEmptyImage) {
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  const auto sys = make_ghz_system(mgr, 3);
  const Subspace empty(mgr, 3);
  EXPECT_EQ(computer->image(sys, empty).dim(), 0u);
}

TEST_P(ImageAlgos, StatsArePopulated) {
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  const auto sys = make_qft_system(mgr, 4);
  (void)computer->image(sys, sys.initial);
  EXPECT_GT(computer->stats().peak_nodes, 0u);
  EXPECT_EQ(computer->stats().kraus_applications, 1u);
  computer->reset_stats();
  EXPECT_EQ(computer->stats().peak_nodes, 0u);
}

TEST_P(ImageAlgos, GateFreeCircuitRecordsTheKet) {
  // No tensor to contract: the push is the factor alone, and it records the
  // (scaled) ket as the peak on the engine's fresh context.
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  Prng rng(7);
  const tdd::Edge ket = ket_from_dense(mgr, 3, rng.unit_vector(8));
  circ::Circuit kraus(3);
  kraus.set_global_factor(cplx{0.0, 0.5});
  const tdd::Edge image = computer->apply_kraus(kraus, ket);
  EXPECT_TRUE(tdd::same_tensor(image, mgr.scale(ket, cplx{0.0, 0.5})));
  EXPECT_EQ(computer->stats().peak_nodes, tdd::node_count(ket));
  EXPECT_EQ(computer->stats().kraus_applications, 1u);
}

TEST_P(ImageAlgos, DeadlineAborts) {
  tdd::Manager mgr;
  auto computer = make_computer(mgr, GetParam());
  computer->set_deadline(Deadline::after(1e-12));
  const auto sys = make_qft_system(mgr, 6);
  EXPECT_THROW((void)computer->image(sys, sys.initial), DeadlineExceeded);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ImageAlgos,
                         ::testing::Values("basic", "addition", "addition2", "contraction"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Cross-algorithm agreement on a parameter sweep of circuits and widths.
using CrossParam = std::tuple<int, int>;  // (width, seed)

class CrossAlgo : public ::testing::TestWithParam<CrossParam> {};

TEST_P(CrossAlgo, AllThreeAgree) {
  const auto [n, seed] = GetParam();
  Prng rng(static_cast<std::uint64_t>(seed));
  tdd::Manager mgr;
  const auto c = circ::make_random(static_cast<std::uint32_t>(n), 4 * n, rng);
  QuantumOperation op{"u", {c}};
  Subspace s(mgr, static_cast<std::uint32_t>(n));
  s.add_state(ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << n)));
  s.add_state(ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << n)));

  const auto basic = make_engine(mgr, "basic");
  const auto addition = make_engine(mgr, "addition:1");
  const auto contraction = make_engine(mgr, "contraction:2,3");
  const Subspace ib = basic->image(op, s);
  const Subspace ia = addition->image(op, s);
  const Subspace ic = contraction->image(op, s);
  EXPECT_TRUE(ib.same_subspace(ia));
  EXPECT_TRUE(ib.same_subspace(ic));
}

INSTANTIATE_TEST_SUITE_P(WidthSeedSweep, CrossAlgo,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(1, 2, 3)),
                         [](const ::testing::TestParamInfo<CrossParam>& info) {
                           return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(ImageComputers, PreparedOperatorsAreReused) {
  tdd::Manager mgr;
  const auto basic = make_engine(mgr, "basic");
  const auto sys = make_ghz_system(mgr, 5);
  (void)basic->image(sys, sys.initial);
  const auto apps1 = basic->stats().kraus_applications;
  (void)basic->image(sys, sys.initial);
  EXPECT_EQ(basic->stats().kraus_applications, 2 * apps1);
  basic->clear_prepared();  // must not break subsequent calls
  const Subspace img = basic->image(sys, sys.initial);
  EXPECT_EQ(img.dim(), 1u);
}

TEST(ImageComputers, NamesAndParameters) {
  tdd::Manager mgr;
  EXPECT_EQ(BasicImage(mgr).name(), "basic");
  AdditionImage add(mgr, 3);
  EXPECT_EQ(add.name(), "addition");
  EXPECT_EQ(add.k(), 3u);
  ContractionImage con(mgr, 4, 5);
  EXPECT_EQ(con.name(), "contraction");
  EXPECT_EQ(con.k1(), 4u);
  EXPECT_EQ(con.k2(), 5u);
}

}  // namespace
}  // namespace qts
