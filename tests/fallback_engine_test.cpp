/// Tests for the fallback engine chain (qts/fallback_engine.hpp): spec
/// parsing and canonicalisation, construction rules, real (uninjected)
/// degradation on codec budgets, the only-ResourceExhausted-degrades
/// contract, and the mid-run recovery that motivates the whole feature.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/execution_context.hpp"
#include "qts/engine.hpp"
#include "qts/fallback_engine.hpp"
#include "qts/reachability.hpp"
#include "qts/workloads.hpp"

namespace qts {
namespace {

// ---------------------------------------------------------------------------
// Spec grammar

TEST(FallbackSpec, ParsesAndCanonicalises) {
  const EngineSpec spec = EngineSpec::parse("fallback:statevector;sparse;basic");
  EXPECT_EQ(spec.method, "fallback");
  // Elements are canonicalised so to_string() round-trips.
  EXPECT_EQ(spec.to_string(), "fallback:statevector:14;sparse:65536;basic");
  EXPECT_EQ(EngineSpec::parse(spec.to_string()).to_string(), spec.to_string());
}

TEST(FallbackSpec, AcceptsParallelElements) {
  const EngineSpec spec = EngineSpec::parse("fallback:statevector:2;parallel:2");
  EXPECT_EQ(spec.to_string(), "fallback:statevector:2;parallel:2");
  EXPECT_EQ(EngineSpec::parse("fallback:parallel;basic").to_string(), "fallback:parallel:0;basic");
}

TEST(FallbackSpec, RejectsMalformedChains) {
  EXPECT_THROW((void)EngineSpec::parse("fallback:"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("fallback:basic"), InvalidArgument);  // one element
  EXPECT_THROW((void)EngineSpec::parse("fallback:basic;"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("fallback:;basic"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("fallback:basic;;sparse"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("fallback:basic;sparse:0"), InvalidArgument);
  // Chains cannot nest, in either direction.
  EXPECT_THROW((void)EngineSpec::parse("fallback:fallback:a;b;basic"), InvalidArgument);
  EXPECT_THROW((void)EngineSpec::parse("parallel:2,fallback:sparse;basic"), InvalidArgument);
}

TEST(FallbackSpec, UnknownElementsAreRejectedAtConstruction) {
  // Parse is permissive about unknown element METHODS (custom registered
  // engines use them), but building the chain resolves every element.
  EXPECT_NO_THROW((void)EngineSpec::parse("fallback:basic;frobnicate"));
  tdd::Manager mgr;
  EXPECT_THROW((void)make_engine(mgr, "fallback:basic;frobnicate"), InvalidArgument);
}

TEST(FallbackSpec, IsRegistered) {
  const auto names = registered_engines();
  EXPECT_NE(std::find(names.begin(), names.end(), "fallback"), names.end());
}

TEST(FallbackEngine, ConstructionRejectsParallelWrapping) {
  tdd::Manager mgr;
  EXPECT_THROW((void)make_engine(mgr, "parallel:2,fallback:sparse;basic"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Real degradation on codec budgets (no fault injection)

TEST(FallbackEngine, DegradesOnTheSparseBudgetAndMatchesTheFinalBackend) {
  // GHZ preparation builds superpositions immediately: sparse:1 trips its
  // non-zero budget on the first image, and the chain must finish on basic
  // with exactly the result basic alone produces.
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);

  const auto engine = make_engine(mgr, "fallback:sparse:1;basic", &ctx);
  auto& chain = dynamic_cast<FallbackImage&>(*engine);
  EXPECT_EQ(chain.active_index(), 0u);
  EXPECT_TRUE(chain.shards_frontier());

  const auto degraded = reachable_space(*engine, sys, 16);
  const auto reference = reachable_space(*make_engine(mgr, "basic"), sys, 16);
  EXPECT_TRUE(degraded.converged);
  EXPECT_EQ(degraded.space.dim(), reference.space.dim());
  EXPECT_TRUE(degraded.space.same_subspace(reference.space));

  EXPECT_EQ(chain.active_index(), 1u);
  ASSERT_EQ(chain.degradations().size(), 1u);
  const DegradationEvent& ev = chain.degradations()[0];
  EXPECT_EQ(ev.from, "sparse:1");
  EXPECT_EQ(ev.to, "basic");
  EXPECT_EQ(ev.cause, Resource::kNonzeros);
  EXPECT_NE(ev.message.find("budget"), std::string::npos);
  EXPECT_EQ(ctx.stats().degradations, 1u);
  EXPECT_EQ(ctx.stats().degradation_causes[static_cast<std::size_t>(Resource::kNonzeros)], 1u);
}

TEST(FallbackEngine, DegradesOnTheDenseQubitCap) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 5);
  // statevector:4 cannot even decode a 5-qubit frontier: the switch happens
  // on the very first iteration.
  const auto engine = make_engine(mgr, "fallback:statevector:4;contraction:2,2", &ctx);
  const auto r = reachable_space(*engine, sys, 16);
  EXPECT_TRUE(r.converged);
  auto& chain = dynamic_cast<FallbackImage&>(*engine);
  ASSERT_EQ(chain.degradations().size(), 1u);
  EXPECT_EQ(chain.degradations()[0].cause, Resource::kQubits);
  EXPECT_EQ(chain.degradations()[0].iteration, 1u);
}

TEST(FallbackEngine, DegradesInsideASingleImageCall) {
  // Outside any fixpoint loop the switch still works; the recorded
  // iteration is 0 (no driver announced one).
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "fallback:sparse:1;basic", &ctx);
  const Subspace got = engine->image(sys, sys.initial);
  const Subspace expected = make_engine(mgr, "basic")->image(sys, sys.initial);
  EXPECT_EQ(got.dim(), expected.dim());
  EXPECT_TRUE(got.same_subspace(expected));
  auto& chain = dynamic_cast<FallbackImage&>(*engine);
  ASSERT_EQ(chain.degradations().size(), 1u);
  EXPECT_EQ(chain.degradations()[0].iteration, 0u);
}

TEST(FallbackEngine, SwitchObserverFiresSynchronously) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "fallback:sparse:1;basic");
  std::vector<std::string> seen;
  dynamic_cast<FallbackImage&>(*engine).set_switch_observer(
      [&](const DegradationEvent& ev) { seen.push_back(ev.from + "->" + ev.to); });
  (void)reachable_space(*engine, sys, 16);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "sparse:1->basic");
}

// ---------------------------------------------------------------------------
// Only ResourceExhausted degrades

/// Registered test-only engine throwing a chosen error from prepare().
template <typename E>
class ThrowingImage final : public ImageComputer {
 public:
  using ImageComputer::ImageComputer;
  [[nodiscard]] std::string name() const override { return "throwing"; }

 protected:
  Prepared prepare(const circ::Circuit&) override {
    throw E("throwing engine: deliberate test failure");
  }
};

TEST(FallbackEngine, BugExceptionsPropagateWithoutDegrading) {
  register_engine("throw-internal", [](tdd::Manager& m, const EngineSpec&, ExecutionContext* c) {
    return std::make_unique<ThrowingImage<InternalError>>(m, c);
  });
  register_engine("throw-invalid", [](tdd::Manager& m, const EngineSpec&, ExecutionContext* c) {
    return std::make_unique<ThrowingImage<InvalidArgument>>(m, c);
  });

  ExecutionContext ctx;
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  // A library bug (InternalError) or caller bug (InvalidArgument) in the
  // preferred backend must NOT be masked by degrading past it.
  const auto internal = make_engine(mgr, "fallback:throw-internal;basic", &ctx);
  EXPECT_THROW((void)internal->image(sys, sys.initial), InternalError);
  const auto invalid = make_engine(mgr, "fallback:throw-invalid;basic", &ctx);
  EXPECT_THROW((void)invalid->image(sys, sys.initial), InvalidArgument);
  EXPECT_EQ(ctx.stats().degradations, 0u);
  EXPECT_EQ(dynamic_cast<FallbackImage&>(*internal).active_index(), 0u);
}

// ---------------------------------------------------------------------------
// The motivating satellite: a mid-run budget overflow loses the whole run
// without a chain, and recovers with one.

TEST(FallbackEngine, MidRunSparseOverflowLosesTheRunWithoutAChain) {
  // Pin of the pre-fallback behaviour: sparse:2 survives the first GHZ
  // iterations (support grows from 1) until the support outgrows the
  // budget, and then the whole run is lost — the caller gets an exception,
  // not a result.
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "sparse:2");
  EXPECT_THROW((void)reachable_space(*engine, sys, 16), ResourceExhausted);
}

TEST(FallbackEngine, MidRunSparseOverflowRecoversWithAChain) {
  // The same workload under fallback:sparse:2;basic keeps every iteration
  // completed before the trip and finishes on the TDD backend.
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "fallback:sparse:2;basic", &ctx);
  const auto recovered = reachable_space(*engine, sys, 16);
  EXPECT_TRUE(recovered.converged);
  const auto reference = reachable_space(*make_engine(mgr, "basic"), sys, 16);
  EXPECT_EQ(recovered.space.dim(), reference.space.dim());
  EXPECT_TRUE(recovered.space.same_subspace(reference.space));
  EXPECT_EQ(ctx.stats().degradations, 1u);
}

}  // namespace
}  // namespace qts
