/// Tests for the sparse amplitude-map backend of the state-representation
/// seam: the TDD↔sparse codec (non-zero-path walk, radix build, the
/// non-zero budget at the exact boundary), the sparse operation application,
/// the shared tolerance constants at the zero-norm boundary, the sparse
/// engine (alone and above the dense qubit cap), and the differential/cross-check equivalence against the TDD
/// and dense engines over the fixpoint workloads and the shipped example
/// QASM files.
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
#include "qts/sparse_engine.hpp"
#include "qts/workloads.hpp"
#include "sim/basis_subspace.hpp"
#include "sim/sparse_state.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

using test::with_depolarizing;

constexpr double kInvSqrt2 = 0.7071067811865475244;

using SystemFactory = TransitionSystem (*)(tdd::Manager&);

/// The six fixpoint workloads shared with the statevector differential
/// suite, including two noisy (multi-Kraus, non-unitary) systems that
/// exercise the sparse projector-gate and global-factor paths.
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
// Sparse ket codec

TEST(SparseCodec, RoundTripsBasisAndSuperpositionKets) {
  tdd::Manager mgr;
  const std::uint32_t n = 3;
  for (std::uint64_t b = 0; b < 8; ++b) {
    const tdd::Edge ket = ket_basis(mgr, n, b);
    const sim::SparseState sparse = decode_ket_sparse(ket, n);
    ASSERT_EQ(sparse.nonzeros(), 1u) << b;
    EXPECT_NEAR(sparse.amplitude(b).real(), 1.0, 1e-12) << b;
    // Hash-consing: re-encoding lands on the identical node.
    EXPECT_EQ(encode_ket_sparse(mgr, sparse).node, ket.node);
  }

  // |+⟩|0⟩|−⟩, MSB-first: qubit 0 indexes the high bit on both sides.
  std::vector<std::array<cplx, 2>> amps(3, {cplx{kInvSqrt2, 0.0}, cplx{kInvSqrt2, 0.0}});
  amps[1] = {cplx{1.0, 0.0}, cplx{0.0, 0.0}};
  amps[2] = {cplx{kInvSqrt2, 0.0}, cplx{-kInvSqrt2, 0.0}};
  const tdd::Edge ket = ket_product(mgr, amps);
  const sim::SparseState sparse = decode_ket_sparse(ket, n);
  EXPECT_EQ(sparse.nonzeros(), 4u);
  EXPECT_NEAR(sparse.amplitude(0b000).real(), 0.5, 1e-12);
  EXPECT_NEAR(sparse.amplitude(0b001).real(), -0.5, 1e-12);
  EXPECT_NEAR(sparse.amplitude(0b010).real(), 0.0, 1e-12);
  EXPECT_NEAR(sparse.amplitude(0b100).real(), 0.5, 1e-12);
  EXPECT_NEAR(sparse.amplitude(0b101).real(), -0.5, 1e-12);
  EXPECT_EQ(encode_ket_sparse(mgr, sparse).node, ket.node);
}

TEST(SparseCodec, AgreesWithTheDenseCodec) {
  // Both codecs decode the same TDD ket: the sparse map must match the
  // dense amplitude vector entry for entry (the skipped-variable expansion
  // paths of the two walks differ, the results must not).
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto engine = make_engine(mgr, "basic");
  const tdd::Edge image =
      engine->apply_kraus(sys.operations[0].kraus[0], sys.initial.basis()[0]);
  const la::Vector dense = decode_ket(image, 3);
  const sim::SparseState sparse = decode_ket_sparse(image, 3);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sparse.amplitude(i) - dense[i]), 0.0, 1e-12) << i;
  }
}

TEST(SparseCodec, RoundTripsAtTheExactNonzeroCap) {
  tdd::Manager mgr;
  const std::uint32_t n = 3;
  // |+++⟩: all 8 amplitudes populated — exactly at an 8-non-zero budget.
  std::vector<std::array<cplx, 2>> amps(3, {cplx{kInvSqrt2, 0.0}, cplx{kInvSqrt2, 0.0}});
  const tdd::Edge ket = ket_product(mgr, amps);

  const sim::SparseState at_cap = decode_ket_sparse(ket, n, 8);
  EXPECT_EQ(at_cap.nonzeros(), 8u);
  EXPECT_EQ(encode_ket_sparse(mgr, at_cap, 8).node, ket.node);  // cap inclusive both ways

  // A budget trip is a recoverable resource failure (fallback chains degrade
  // on it); a degenerate budget of 0 is a caller config error.
  EXPECT_THROW((void)decode_ket_sparse(ket, n, 7), ResourceExhausted);
  EXPECT_THROW((void)encode_ket_sparse(mgr, at_cap, 7), ResourceExhausted);
  EXPECT_THROW((void)decode_ket_sparse(ket, n, 0), InvalidArgument);  // degenerate budget
}

TEST(SparseCodec, PrunesZeroAmplitudes) {
  tdd::Manager mgr;
  const std::uint32_t n = 2;
  // set() never stores explicit zeros.
  sim::SparseState s(n);
  s.set(0, cplx{1.0, 0.0});
  s.set(1, cplx{0.5, 0.0});
  s.set(1, cplx{0.0, 0.0});
  EXPECT_EQ(s.nonzeros(), 1u);

  // encode prunes approximately-zero amplitudes instead of encoding them —
  // and the pruned entries do not count against the budget.
  s.set(2, cplx{1e-12, 0.0});
  EXPECT_EQ(s.nonzeros(), 2u);
  const tdd::Edge e = encode_ket_sparse(mgr, s, 1);
  EXPECT_EQ(decode_ket_sparse(e, n).nonzeros(), 1u);

  // Gate cancellation residue is pruned by apply_circuit: H|+⟩ = |0⟩.
  circ::Circuit plus(1);
  plus.h(0);
  const sim::SparseState h_plus =
      sim::apply_circuit(plus, sim::apply_circuit(plus, sim::SparseState::basis(1, 0)));
  EXPECT_EQ(h_plus.nonzeros(), 1u);
  EXPECT_NEAR(std::abs(h_plus.amplitude(0) - cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(SparseCodec, WorksAboveTheDenseQubitCap) {
  // The whole point of the sparse seam: a 20-qubit ket is far beyond the
  // dense codec's hard 2^n wall but trivial at support 2.
  tdd::Manager mgr;
  const std::uint32_t n = 20;
  const tdd::Edge ghz = mgr.scale(
      mgr.add(ket_basis(mgr, n, 0), ket_basis(mgr, n, (std::uint64_t{1} << n) - 1)),
      cplx{kInvSqrt2, 0.0});
  EXPECT_THROW((void)decode_ket(ghz, n), ResourceExhausted);

  const sim::SparseState sparse = decode_ket_sparse(ghz, n, 2);
  EXPECT_EQ(sparse.nonzeros(), 2u);
  EXPECT_NEAR(sparse.amplitude(0).real(), kInvSqrt2, 1e-12);
  EXPECT_NEAR(sparse.amplitude((std::uint64_t{1} << n) - 1).real(), kInvSqrt2, 1e-12);
  EXPECT_EQ(encode_ket_sparse(mgr, sparse).node, ghz.node);
}

// ---------------------------------------------------------------------------
// Shared tolerance constants (the PR's tolerance-unification bugfix)

TEST(SparseToleranceBoundary, ZeroNormCutoffAgreesAcrossRepresentations) {
  // All three subspace mirrors must treat the same near-zero vector the
  // same way: at norm 1e-13 (below the shared kZeroNormTol = 1e-12) it is
  // the zero vector — add_state rejects it and contains accepts it
  // everywhere; at norm 1e-11 (above) it is a legitimate ray everywhere.
  tdd::Manager mgr;
  const std::uint32_t n = 2;

  for (const double scale : {1e-13, 1e-11}) {
    const bool is_zero = scale <= kZeroNormTol;

    Subspace tdd_space(mgr, n);
    const tdd::Edge tiny_tdd = mgr.scale(ket_basis(mgr, n, 1), cplx{scale, 0.0});
    EXPECT_EQ(tdd_space.add_state(tiny_tdd), !is_zero) << scale;

    sim::BasisSubspace<la::Vector> dense_space(n);
    la::Vector tiny_dense(4);
    tiny_dense[1] = cplx{scale, 0.0};
    EXPECT_EQ(dense_space.add_state(tiny_dense), !is_zero) << scale;

    sim::BasisSubspace<sim::SparseState> sparse_space(n);
    sim::SparseState tiny_sparse(n);
    tiny_sparse.set(1, cplx{scale, 0.0});
    EXPECT_EQ(sparse_space.add_state(tiny_sparse), !is_zero) << scale;

    // Membership of the near-zero vector in an UNRELATED subspace: below
    // the cutoff every representation says "zero vector, contained";
    // above it every representation says "independent ray, not contained".
    Subspace other_tdd = Subspace::from_states(mgr, n, {ket_basis(mgr, n, 0)});
    EXPECT_EQ(other_tdd.contains(tiny_tdd), is_zero) << scale;
    sim::BasisSubspace<la::Vector> other_dense(n);
    other_dense.add_state(la::Vector{cplx{1.0, 0.0}, {}, {}, {}});
    EXPECT_EQ(other_dense.contains(tiny_dense), is_zero) << scale;
    sim::BasisSubspace<sim::SparseState> other_sparse(n);
    other_sparse.add_state(sim::SparseState::basis(n, 0));
    EXPECT_EQ(other_sparse.contains(tiny_sparse), is_zero) << scale;
  }
}

// ---------------------------------------------------------------------------
// Sparse engine

TEST(SparseEngine, ImageMatchesTheTddEnginesOnOneStep) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto sparse = make_engine(mgr, "sparse");
    const Subspace expected = reference->image(sys, sys.initial);
    const Subspace got = sparse->image(sys, sys.initial);
    EXPECT_EQ(got.dim(), expected.dim()) << name;
    EXPECT_TRUE(got.same_subspace(expected)) << name;
  }
}

TEST(SparseEngine, EnforcesItsNonzeroBudgetWithAClearError) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 5);
  // Budget 1: the initial |0…0⟩ decodes fine, but the Hadamard's two-entry
  // image trips the budget with an actionable message.
  const auto engine = make_engine(mgr, "sparse:1");
  EXPECT_THROW((void)engine->image(sys, sys.initial), ResourceExhausted);
  EXPECT_THROW((void)reachable_space(*engine, sys, 8), ResourceExhausted);
  try {
    (void)engine->image(sys, sys.initial);
    FAIL() << "budget violation did not throw";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kNonzeros);
    EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos);
  }
}

TEST(SparseEngine, CountsKrausApplicationsLikeTheOtherEngines) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto engine = make_engine(mgr, "sparse", &ctx);
  (void)engine->image(sys, sys.initial);
  // 4 Kraus circuits x 1 basis ket.
  EXPECT_EQ(ctx.stats().kraus_applications, 4u);
  EXPECT_GT(ctx.stats().peak_nodes, 0u);
}

TEST(SparseEngine, CompletesAboveTheDenseQubitCap) {
  // A 16-qubit register is past the statevector engine's hard cap but the
  // sparse engine only pays for the populated support.  The all-X flip
  // system reaches its 2-dimensional fixpoint exactly; the TDD reference
  // agrees at full width.
  tdd::Manager mgr;
  const std::uint32_t n = 16;
  circ::Circuit flip(n);
  for (std::uint32_t q = 0; q < n; ++q) flip.x(q);
  TransitionSystem sys{n, Subspace::from_states(mgr, n, {ket_basis(mgr, n, 0)}), {}};
  sys.operations.push_back(QuantumOperation{"flip", {std::move(flip)}});

  const auto dense = make_engine(mgr, "statevector");
  EXPECT_THROW((void)dense->image(sys, sys.initial), ResourceExhausted);

  const auto sparse = make_engine(mgr, "sparse");
  const auto got = reachable_space(*sparse, sys, 8);
  EXPECT_TRUE(got.converged);
  EXPECT_EQ(got.space.dim(), 2u);
  const auto reference = make_engine(mgr, "basic");
  const auto expected = reachable_space(*reference, sys, 8);
  EXPECT_EQ(got.space.dim(), expected.space.dim());
  EXPECT_TRUE(got.space.same_subspace(expected.space));
}

TEST(SparseEngine, MatchesTheTddEnginesOnAWideNoisyWalk) {
  // Non-trivial work above the dense cap: the 16-qubit noisy quantum walk,
  // iteration-capped (its full fixpoint saturates the position register).
  tdd::Manager mgr;
  const TransitionSystem sys = make_qrw_system(mgr, 16, 0.1, true, 0);
  const auto sparse = make_engine(mgr, "sparse");
  const auto reference = make_engine(mgr, "basic");
  const auto got = reachable_space(*sparse, sys, 4);
  const auto expected = reachable_space(*reference, sys, 4);
  EXPECT_EQ(got.iterations, expected.iterations);
  EXPECT_EQ(got.space.dim(), expected.space.dim());
  EXPECT_TRUE(got.space.same_subspace(expected.space));
}

// ---------------------------------------------------------------------------
// Differential suite: sparse vs TDD vs dense engines

TEST(SparseDifferential, ReachabilityAgreesAcrossEnginesOnWorkloads) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto sparse = make_engine(mgr, "sparse");
    const auto expected = reachable_space(*sparse, sys, 64);
    for (const char* spec : {"basic", "contraction:2,2", "statevector", "parallel:2"}) {
      const auto engine = make_engine(mgr, spec);
      const auto got = reachable_space(*engine, sys, 64);
      EXPECT_EQ(got.iterations, expected.iterations) << name << " " << spec;
      EXPECT_EQ(got.converged, expected.converged) << name << " " << spec;
      EXPECT_EQ(got.space.dim(), expected.space.dim()) << name << " " << spec;
      EXPECT_TRUE(got.space.same_subspace(expected.space)) << name << " " << spec;
    }
  }
}

TEST(SparseDifferential, InvariantVerdictsAgreeOnWorkloads) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto sparse = make_engine(mgr, "sparse");
    const auto expected = check_invariant(*reference, sys, sys.initial, 16);
    const auto got = check_invariant(*sparse, sys, sys.initial, 16);
    EXPECT_EQ(got.holds, expected.holds) << name;
    EXPECT_EQ(got.iterations, expected.iterations) << name;
    EXPECT_EQ(got.converged, expected.converged) << name;
  }
}

TEST(SparseDifferential, BackwardReachabilityAgrees) {
  // The adjoint Kraus circuits are non-unitary for the noisy workloads, so
  // this also exercises the sparse daggered projector path.
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto sparse = make_engine(mgr, "sparse");
    const auto expected = backward_reachable(*reference, sys, sys.initial, 16);
    const auto got = backward_reachable(*sparse, sys, sys.initial, 16);
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

TEST(SparseDifferential, AgreesOnTheExampleQasmFiles) {
  for (const char* file : {"ghz.qasm", "phase_oracle.qasm"}) {
    tdd::Manager mgr;
    const TransitionSystem sys = system_from_qasm(mgr, file);
    const auto reference = make_engine(mgr, "contraction:2,2");
    const auto sparse = make_engine(mgr, "sparse");
    const auto expected = reachable_space(*reference, sys, 64);
    const auto got = reachable_space(*sparse, sys, 64);
    EXPECT_EQ(got.iterations, expected.iterations) << file;
    EXPECT_EQ(got.space.dim(), expected.space.dim()) << file;
    EXPECT_TRUE(got.space.same_subspace(expected.space)) << file;

    const auto expected_invar = check_invariant(*reference, sys, sys.initial, 64);
    const auto got_invar = check_invariant(*sparse, sys, sys.initial, 64);
    EXPECT_EQ(got_invar.holds, expected_invar.holds) << file;
    EXPECT_EQ(got_invar.iterations, expected_invar.iterations) << file;
  }
}

TEST(SparseDifferential, AgreesOnTheWideExampleQasmFile) {
  // ghz16.qasm is past the dense cap; its full reach fixpoint saturates a
  // huge subspace, so compare the one-step image and the (first-violation)
  // invariant verdict instead — both exercised by the CLI contract too.
  tdd::Manager mgr;
  const TransitionSystem sys = system_from_qasm(mgr, "ghz16.qasm");
  const auto reference = make_engine(mgr, "basic");
  const auto sparse = make_engine(mgr, "sparse");

  const Subspace expected = reference->image(sys, sys.initial);
  const Subspace got = sparse->image(sys, sys.initial);
  EXPECT_EQ(got.dim(), expected.dim());
  EXPECT_TRUE(got.same_subspace(expected));

  const auto expected_invar = check_invariant(*reference, sys, sys.initial, 4);
  const auto got_invar = check_invariant(*sparse, sys, sys.initial, 4);
  EXPECT_EQ(got_invar.holds, expected_invar.holds);
  EXPECT_EQ(got_invar.iterations, expected_invar.iterations);
}

// ---------------------------------------------------------------------------
// Cross-check mode with the sparse engine

TEST(SparseCrossCheck, PassesCleanOnEveryWorkloadAndEnginePairing) {
  for (const auto& [name, make_system] : workload_systems()) {
    for (const char* primary_spec : {"basic", "parallel:2", "statevector"}) {
      tdd::Manager mgr;
      tdd::Manager oracle_mgr;
      const TransitionSystem sys = make_system(mgr);
      const auto primary = make_engine(mgr, primary_spec);
      const auto oracle = make_engine(oracle_mgr, "sparse");
      const auto plain = reachable_space(*primary, sys, 64);
      const auto checked_primary = make_engine(mgr, primary_spec);
      const auto r = reachable_space(*checked_primary, sys, 64, nullptr, oracle.get());
      EXPECT_EQ(r.iterations, plain.iterations) << name << " " << primary_spec;
      EXPECT_EQ(r.space.dim(), plain.space.dim()) << name << " " << primary_spec;
      EXPECT_TRUE(r.space.same_subspace(plain.space)) << name << " " << primary_spec;
    }
  }
}

TEST(SparseCrossCheck, SparsePrimaryAcceptsADenseOracle) {
  // Both roles crossing the seam: sparse primary, dense oracle.
  tdd::Manager mgr;
  tdd::Manager oracle_mgr;
  const TransitionSystem sys = with_depolarizing(make_qrw_system(mgr, 4, 0.1, true, 0));
  const auto primary = make_engine(mgr, "sparse");
  const auto oracle = make_engine(oracle_mgr, "statevector");
  const auto r = reachable_space(*primary, sys, 32, nullptr, oracle.get());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.space.dim(), 16u);
}

/// Deliberately wrong engine: identity dynamics — the injected divergence
/// the sparse oracle must catch.
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

TEST(SparseCrossCheck, DetectsAnInjectedDivergence) {
  tdd::Manager mgr;
  tdd::Manager oracle_mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  IdentityImage broken(mgr);
  const auto sparse = make_engine(oracle_mgr, "sparse");
  EXPECT_THROW((void)reachable_space(broken, sys, 64, nullptr, sparse.get()), InternalError);
  const auto primary = make_engine(mgr, "basic");
  IdentityImage broken_oracle(oracle_mgr);
  FixpointDriver driver(*primary, sys);
  driver.set_max_iterations(64).set_oracle(broken_oracle);
  EXPECT_THROW((void)driver.run(), InternalError);
}

TEST(SparseCrossCheck, SurvivesGcPressure) {
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
  const auto oracle = make_engine(oracle_mgr, "sparse", &oracle_ctx);
  const auto r = reachable_space(*primary, sys, 32, nullptr, oracle.get());
  EXPECT_TRUE(r.converged);
  EXPECT_GT(ctx.stats().gc_runs, 0u);
  EXPECT_GT(oracle_ctx.stats().gc_runs, 0u);
}

// ---------------------------------------------------------------------------
// Engine spec / registry

TEST(SparseEngineSpec, ParsesAndRoundTrips) {
  const EngineSpec spec = EngineSpec::parse("sparse:128");
  EXPECT_EQ(spec.method, "sparse");
  EXPECT_EQ(spec.to_string(), "sparse:128");
  EXPECT_EQ(EngineSpec::parse("sparse").to_string(),
            "sparse:" + std::to_string(kSparseNonzeroCap));
  EXPECT_EQ(EngineSpec::parse(spec.to_string()).to_string(), "sparse:128");

  EXPECT_THROW((void)EngineSpec::parse("sparse:0"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("sparse:x"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("sparse:128x"), InvalidArgument);  // trailing garbage
  EXPECT_THROW((void)EngineSpec::parse("parallel:2x"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:99999999999999999999"), InvalidArgument);

  tdd::Manager mgr;
  const auto engine = make_engine(mgr, "sparse:128");
  EXPECT_EQ(engine->name(), "sparse");
  EXPECT_EQ(static_cast<const SparseImage&>(*engine).max_nonzeros(), 128u);
  EXPECT_TRUE(static_cast<const SparseImage&>(*engine).shards_frontier());
}

}  // namespace
}  // namespace qts
