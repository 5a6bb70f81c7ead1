/// Tests for the state-representation seam: the ket codec between TDD and
/// dense representations, the statevector oracle engine (alone and as a
/// fallback chain's first element), the differential-oracle equivalence
/// against every TDD engine over the fixpoint workloads and the shipped
/// example QASM files, and the FixpointDriver cross-check mode —
/// clean agreement plus detection of an injected divergence.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/noise.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "qts/backward.hpp"
#include "qts/encode.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/statevector_engine.hpp"
#include "qts/workloads.hpp"
#include "sim/statevector.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

using test::with_depolarizing;

constexpr double kInvSqrt2 = 0.7071067811865475244;

using SystemFactory = TransitionSystem (*)(tdd::Manager&);

/// The six fixpoint workloads of fixpoint_test.cpp, including two noisy
/// (multi-Kraus, non-unitary) systems that exercise the dense engine's
/// projector-gate and global-factor paths.
const std::vector<std::pair<std::string, SystemFactory>>& workload_systems() {
  static const std::vector<std::pair<std::string, SystemFactory>> workloads = {
      {"ghz4", [](tdd::Manager& m) { return make_ghz_system(m, 4); }},
      {"qft3", [](tdd::Manager& m) { return make_qft_system(m, 3); }},
      {"grover7", [](tdd::Manager& m) { return make_grover_system(m, 7); }},
      {"noisy-qrw4", [](tdd::Manager& m) { return make_qrw_system(m, 4, 0.1, true, 0); }},
      {"bitflip-code", [](tdd::Manager& m) { return make_bitflip_code_system(m); }},
      {"depol-ghz3",
       [](tdd::Manager& m) { return with_depolarizing(make_ghz_system(m, 3)); }},
  };
  return workloads;
}

// ---------------------------------------------------------------------------
// Ket codec

TEST(KetCodec, RoundTripsBasisAndSuperpositionKets) {
  tdd::Manager mgr;
  const std::uint32_t n = 3;
  for (std::uint64_t b = 0; b < 8; ++b) {
    const tdd::Edge ket = ket_basis(mgr, n, b);
    const la::Vector dense = decode_ket(ket, n);
    ASSERT_EQ(dense.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(dense[i].real(), i == b ? 1.0 : 0.0, 1e-12) << b << " " << i;
    }
    // Hash-consing: re-encoding lands on the identical node.
    EXPECT_EQ(encode_ket(mgr, dense, n).node, ket.node);
  }

  // |+⟩|0⟩|−⟩, MSB-first: qubit 0 indexes the high bit on both sides.
  std::vector<std::array<cplx, 2>> amps(3, {cplx{kInvSqrt2, 0.0}, cplx{kInvSqrt2, 0.0}});
  amps[1] = {cplx{1.0, 0.0}, cplx{0.0, 0.0}};
  amps[2] = {cplx{kInvSqrt2, 0.0}, cplx{-kInvSqrt2, 0.0}};
  const tdd::Edge ket = ket_product(mgr, amps);
  const la::Vector dense = decode_ket(ket, n);
  EXPECT_NEAR(dense[0b000].real(), 0.5, 1e-12);
  EXPECT_NEAR(dense[0b001].real(), -0.5, 1e-12);
  EXPECT_NEAR(dense[0b010].real(), 0.0, 1e-12);
  EXPECT_NEAR(dense[0b100].real(), 0.5, 1e-12);
  EXPECT_NEAR(dense[0b101].real(), -0.5, 1e-12);
  EXPECT_EQ(encode_ket(mgr, dense, n).node, ket.node);
}

TEST(KetCodec, AgreesWithTheSimulatorConvention) {
  // decode(TDD ket) must equal the sim:: dense vector gate-for-gate: push a
  // circuit through both representations and compare amplitudes.
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const la::Vector dense_initial = decode_ket(sys.initial.basis()[0], 3);
  const la::Vector dense_image = sim::apply_circuit(sys.operations[0].kraus[0], dense_initial);

  const auto engine = make_engine(mgr, "basic");
  const tdd::Edge tdd_image =
      engine->apply_kraus(sys.operations[0].kraus[0], sys.initial.basis()[0]);
  const la::Vector decoded = decode_ket(tdd_image, 3);
  ASSERT_EQ(decoded.size(), dense_image.size());
  EXPECT_TRUE(decoded.approx(dense_image, 1e-9));
}

TEST(KetCodec, EnforcesTheQubitCap) {
  tdd::Manager mgr;
  const tdd::Edge ket = ket_basis(mgr, 4, 0);
  // Register-over-cap is a recoverable resource failure; a cap above the
  // codec's hard 30-qubit wall is a caller config error.
  EXPECT_THROW((void)decode_ket(ket, 4, 3), ResourceExhausted);
  EXPECT_THROW((void)encode_ket(mgr, la::Vector(16), 4, 3), ResourceExhausted);
  EXPECT_THROW((void)decode_ket(ket, 4, 31), InvalidArgument);  // cap itself capped
  EXPECT_THROW((void)encode_ket(mgr, la::Vector(8), 4), InvalidArgument);  // 2^n mismatch
  EXPECT_NO_THROW((void)decode_ket(ket, 4, 4));
}

// ---------------------------------------------------------------------------
// Statevector engine

TEST(StatevectorEngine, ImageMatchesTheTddEnginesOnOneStep) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto dense = make_engine(mgr, "statevector");
    const Subspace expected = reference->image(sys, sys.initial);
    const Subspace got = dense->image(sys, sys.initial);
    EXPECT_EQ(got.dim(), expected.dim()) << name;
    EXPECT_TRUE(got.same_subspace(expected)) << name;
  }
}

TEST(StatevectorEngine, EnforcesItsQubitCapWithAClearError) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 5);
  const auto engine = make_engine(mgr, "statevector:4");
  EXPECT_THROW((void)engine->image(sys, sys.initial), ResourceExhausted);
  EXPECT_THROW((void)reachable_space(*engine, sys, 8), ResourceExhausted);
}

TEST(StatevectorEngine, CountsKrausApplicationsLikeTheOtherEngines) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto engine = make_engine(mgr, "statevector", &ctx);
  (void)engine->image(sys, sys.initial);
  // 4 Kraus circuits x 1 basis ket.
  EXPECT_EQ(ctx.stats().kraus_applications, 4u);
  EXPECT_GT(ctx.stats().peak_nodes, 0u);
}

TEST(StatevectorDifferential, ReachabilityAgreesAcrossEnginesOnWorkloads) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto dense = make_engine(mgr, "statevector");
    const auto expected = reachable_space(*dense, sys, 64);
    for (const char* spec : {"basic", "contraction:2,2", "parallel:2",
                             "fallback:statevector:2;parallel:2"}) {
      const auto engine = make_engine(mgr, spec);
      const auto got = reachable_space(*engine, sys, 64);
      EXPECT_EQ(got.iterations, expected.iterations) << name << " " << spec;
      EXPECT_EQ(got.converged, expected.converged) << name << " " << spec;
      EXPECT_EQ(got.space.dim(), expected.space.dim()) << name << " " << spec;
      EXPECT_TRUE(got.space.same_subspace(expected.space)) << name << " " << spec;
    }
  }
}

TEST(StatevectorDifferential, InvariantVerdictsAgreeOnWorkloads) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto dense = make_engine(mgr, "statevector");
    const auto expected = check_invariant(*reference, sys, sys.initial, 16);
    const auto got = check_invariant(*dense, sys, sys.initial, 16);
    EXPECT_EQ(got.holds, expected.holds) << name;
    EXPECT_EQ(got.iterations, expected.iterations) << name;
    EXPECT_EQ(got.converged, expected.converged) << name;
  }
}

TEST(StatevectorDifferential, BackwardReachabilityAgrees) {
  // The adjoint Kraus circuits are non-unitary for the noisy workloads, so
  // this also exercises the dense engine's daggered projector path.
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto dense = make_engine(mgr, "statevector");
    const auto expected = backward_reachable(*reference, sys, sys.initial, 16);
    const auto got = backward_reachable(*dense, sys, sys.initial, 16);
    EXPECT_EQ(got.iterations, expected.iterations) << name;
    EXPECT_EQ(got.space.dim(), expected.space.dim()) << name;
    EXPECT_TRUE(got.space.same_subspace(expected.space)) << name;
  }
}

/// The shipped example QASM files, modelled exactly as qtsmc models them:
/// the circuit is the single transition, |0…0⟩ spans the initial subspace.
TransitionSystem system_from_qasm(tdd::Manager& mgr, const std::string& filename) {
  const std::string path = std::string(QTS_EXAMPLES_DIR) + "/" + filename;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  circ::Circuit circuit = circ::from_qasm(text.str());
  const std::uint32_t n = circuit.num_qubits();
  TransitionSystem sys{n, Subspace::from_states(mgr, n, {ket_basis(mgr, n, 0)}), {}};
  sys.operations.push_back(QuantumOperation{"step", {std::move(circuit)}});
  return sys;
}

TEST(StatevectorDifferential, AgreesOnTheExampleQasmFiles) {
  for (const char* file : {"ghz.qasm", "phase_oracle.qasm"}) {
    tdd::Manager mgr;
    const TransitionSystem sys = system_from_qasm(mgr, file);
    const auto reference = make_engine(mgr, "contraction:2,2");
    const auto dense = make_engine(mgr, "statevector");
    const auto expected = reachable_space(*reference, sys, 64);
    const auto got = reachable_space(*dense, sys, 64);
    EXPECT_EQ(got.iterations, expected.iterations) << file;
    EXPECT_EQ(got.space.dim(), expected.space.dim()) << file;
    EXPECT_TRUE(got.space.same_subspace(expected.space)) << file;

    const auto expected_invar = check_invariant(*reference, sys, sys.initial, 64);
    const auto got_invar = check_invariant(*dense, sys, sys.initial, 64);
    EXPECT_EQ(got_invar.holds, expected_invar.holds) << file;
    EXPECT_EQ(got_invar.iterations, expected_invar.iterations) << file;
  }
}

// ---------------------------------------------------------------------------
// Cross-check mode

TEST(CrossCheck, PassesCleanOnEveryWorkloadAndEnginePairing) {
  for (const auto& [name, make_system] : workload_systems()) {
    for (const char* primary_spec : {"basic", "parallel:2"}) {
      tdd::Manager mgr;
      tdd::Manager oracle_mgr;
      const TransitionSystem sys = make_system(mgr);
      const auto primary = make_engine(mgr, primary_spec);
      const auto oracle = make_engine(oracle_mgr, "statevector");
      const auto plain = reachable_space(*primary, sys, 64);
      // Same manager, fresh engines: the checked run must agree with itself
      // and with the unchecked run.
      const auto checked_primary = make_engine(mgr, primary_spec);
      const auto r = reachable_space(*checked_primary, sys, 64, nullptr, oracle.get());
      EXPECT_EQ(r.iterations, plain.iterations) << name << " " << primary_spec;
      EXPECT_EQ(r.space.dim(), plain.space.dim()) << name << " " << primary_spec;
      EXPECT_TRUE(r.space.same_subspace(plain.space)) << name << " " << primary_spec;
    }
  }
}

TEST(CrossCheck, InvariantRunsPassCleanWithAnOracle) {
  tdd::Manager mgr;
  tdd::Manager oracle_mgr;
  const TransitionSystem sys = make_grover_system(mgr, 4);
  const auto primary = make_engine(mgr, "basic");
  const auto oracle = make_engine(oracle_mgr, "statevector");
  const auto r = check_invariant(*primary, sys, sys.initial, 16, nullptr, oracle.get());
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.converged);
}

TEST(CrossCheck, OracleMayItselfClaimFrontiers) {
  // Both roles may be frontier-claiming engines: dense primary, sharded
  // oracle, whose workers intern in the oracle's own manager.
  tdd::Manager mgr;
  tdd::Manager oracle_mgr;
  const TransitionSystem sys = with_depolarizing(make_qrw_system(mgr, 4, 0.1, true, 0));
  const auto primary = make_engine(mgr, "statevector");
  const auto oracle = make_engine(oracle_mgr, "parallel:2");
  const auto r = reachable_space(*primary, sys, 32, nullptr, oracle.get());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.space.dim(), 16u);
}

/// Deliberately wrong engine: identity dynamics (every image is the input
/// ket) — the injected divergence the cross-check must catch.
class IdentityImage final : public ImageComputer {
 public:
  using ImageComputer::ImageComputer;
  [[nodiscard]] std::string name() const override { return "identity"; }

 protected:
  /// One empty term: the push of a ket through no operators is the ket.
  Prepared prepare(const circ::Circuit&) override {
    Prepared identity;
    identity.terms.emplace_back();
    return identity;
  }
};

TEST(CrossCheck, DetectsAnInjectedDivergence) {
  tdd::Manager mgr;
  tdd::Manager oracle_mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto primary = make_engine(mgr, "basic");
  IdentityImage broken_oracle(oracle_mgr);
  FixpointDriver driver(*primary, sys);
  driver.set_max_iterations(64).set_oracle(broken_oracle);
  EXPECT_THROW((void)driver.run(), InternalError);
  // And through the reachable_space plumbing, in both roles.
  EXPECT_THROW((void)reachable_space(*primary, sys, 64, nullptr, &broken_oracle), InternalError);
  IdentityImage broken(mgr);
  const auto dense = make_engine(oracle_mgr, "statevector");
  EXPECT_THROW((void)reachable_space(broken, sys, 64, nullptr, dense.get()), InternalError);
}

TEST(CrossCheck, AcceptsOnlyAForeignManagerOracle) {
  tdd::Manager mgr;
  tdd::Manager other;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto primary = make_engine(mgr, "basic");
  const auto foreign = make_engine(other, "contraction:2,2");
  const auto same_manager = make_engine(mgr, "statevector");
  FixpointDriver driver(*primary, sys);
  EXPECT_THROW((void)driver.set_oracle(*same_manager), InvalidArgument);
  EXPECT_THROW((void)driver.set_oracle(*primary), InvalidArgument);  // self-check
  driver.set_max_iterations(64).set_oracle(*foreign);
  const FixpointDriver::Result r = driver.run();
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.space.same_subspace(reachable_space(*primary, sys, 64).space));
  // The oracle's prepared operators were cleared when it finished.
  EXPECT_TRUE(foreign->prepared_roots().empty());
}

TEST(CrossCheck, SurvivesGcPressure) {
  // Floor 1 with growth 1.0 forces a collection before every iteration in
  // both managers; each run's accumulator, frontier and prepared operators
  // must be its own GC roots or the comparison would read freed nodes.
  ExecutionContext ctx;
  ctx.set_adaptive_gc(true, 1, 1.0);
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  ExecutionContext oracle_ctx;
  oracle_ctx.set_adaptive_gc(true, 1, 1.0);
  tdd::Manager oracle_mgr;
  oracle_mgr.bind_context(&oracle_ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto primary = make_engine(mgr, "contraction:2,2", &ctx);
  const auto oracle = make_engine(oracle_mgr, "statevector", &oracle_ctx);
  const auto r = reachable_space(*primary, sys, 32, nullptr, oracle.get());
  EXPECT_TRUE(r.converged);
  EXPECT_GT(ctx.stats().gc_runs, 0u);
  EXPECT_GT(oracle_ctx.stats().gc_runs, 0u);
}

}  // namespace
}  // namespace qts
