/// Tests for the deterministic fault-injection harness (common/fault.hpp)
/// and the recovery seams it exists to exercise: the manager's node budget,
/// the slab-boundary bad_alloc translation, worker-pool unwinding under an
/// injected mid-iteration failure, and the end-to-end acceptance property —
/// a fallback chain forced through every backend mid-fixpoint still lands
/// on the exact result of an uninjected run of its last element.
#include <gtest/gtest.h>

#include <new>
#include <string>
#include <vector>

#include "circuit/noise.hpp"
#include "common/execution_context.hpp"
#include "common/fault.hpp"
#include "qts/engine.hpp"
#include "qts/fallback_engine.hpp"
#include "qts/reachability.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"

namespace qts {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan parsing

TEST(FaultPlan, ParsesIterationAndCountTriggers) {
  const auto plan = FaultPlan::parse("nodes@iter3,alloc@count:2,deadline@iter1");
  ASSERT_EQ(plan->faults().size(), 3u);
  EXPECT_EQ(plan->faults()[0]->kind, FaultPlan::Kind::kNodes);
  EXPECT_EQ(plan->faults()[0]->iteration, 3u);
  EXPECT_EQ(plan->faults()[0]->count, 0u);
  EXPECT_EQ(plan->faults()[1]->kind, FaultPlan::Kind::kAlloc);
  EXPECT_EQ(plan->faults()[1]->count, 2u);
  EXPECT_EQ(plan->faults()[2]->kind, FaultPlan::Kind::kDeadline);
  EXPECT_EQ(plan->faults()[2]->spec, "deadline@iter1");
  EXPECT_FALSE(plan->exhausted());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse(""), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("bogus@iter1"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("nodes"), InvalidArgument);         // no trigger
  EXPECT_THROW((void)FaultPlan::parse("nodes@"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("nodes@iter0"), InvalidArgument);   // 1-based
  EXPECT_THROW((void)FaultPlan::parse("nodes@iterx"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("nodes@count:0"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("nodes@count:"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("nodes@sometime"), InvalidArgument);
  EXPECT_THROW((void)FaultPlan::parse("nodes@iter1,"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Probe semantics: count triggers, guards, fire-once latching

TEST(FaultPlan, CountTriggerFiresOnTheNthProbeOnly) {
  const auto plan = FaultPlan::parse("nodes@count:3");
  EXPECT_NO_THROW(plan->probe_alloc());
  EXPECT_NO_THROW(plan->probe_alloc());
  try {
    plan->probe_alloc();
    FAIL() << "third probe did not fire";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kNodes);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  // Fire-once latch: a recovery layer that retries must make progress.
  EXPECT_NO_THROW(plan->probe_alloc());
  EXPECT_TRUE(plan->exhausted());
}

TEST(FaultPlan, AllocFaultThrowsBadAlloc) {
  const auto plan = FaultPlan::parse("alloc@count:1");
  EXPECT_THROW(plan->probe_alloc(), std::bad_alloc);
  EXPECT_NO_THROW(plan->probe_alloc());
}

TEST(FaultPlan, CodecFaultsRespectTheGuard) {
  // A qubits fault never fires in a sparse-guarded codec and vice versa, so
  // a chain like statevector;sparse degrades at the intended element.
  const auto dense = FaultPlan::parse("qubits@count:1");
  EXPECT_NO_THROW(dense->probe_codec(Resource::kNonzeros));
  EXPECT_NO_THROW(dense->probe_alloc());
  try {
    dense->probe_codec(Resource::kQubits);
    FAIL() << "qubits fault did not fire in the dense codec";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kQubits);
  }

  const auto sparse = FaultPlan::parse("nonzeros@count:1");
  EXPECT_NO_THROW(sparse->probe_codec(Resource::kQubits));
  EXPECT_THROW(sparse->probe_codec(Resource::kNonzeros), ResourceExhausted);
}

TEST(FaultPlan, IterationTriggerWaitsForItsIteration) {
  const auto plan = FaultPlan::parse("nodes@iter2");
  plan->begin_iteration(1);
  EXPECT_NO_THROW(plan->probe_alloc());
  EXPECT_NO_THROW(plan->probe_alloc());
  plan->begin_iteration(2);
  EXPECT_THROW(plan->probe_alloc(), ResourceExhausted);
  EXPECT_NO_THROW(plan->probe_alloc());  // latched
  EXPECT_TRUE(plan->exhausted());
}

TEST(FaultPlan, DeadlineFaultThrowsDeadlineExceeded) {
  const auto plan = FaultPlan::parse("deadline@count:1");
  EXPECT_THROW(plan->probe_deadline(), DeadlineExceeded);
  EXPECT_NO_THROW(plan->probe_deadline());
}

// ---------------------------------------------------------------------------
// Injection sites end to end

TEST(FaultInjection, DeadlineFaultSurfacesFromTheFixpointLoop) {
  ExecutionContext ctx;
  ctx.set_fault_plan(FaultPlan::parse("deadline@iter2"));
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "basic", &ctx);
  EXPECT_THROW((void)reachable_space(*engine, sys, 16), DeadlineExceeded);
}

TEST(FaultInjection, AllocFaultTakesTheSlabTranslationSeam) {
  // An injected std::bad_alloc on the arena's allocation path must surface
  // as ResourceExhausted(kMemory) — the same translation a real slab
  // exhaustion gets — not as a raw bad_alloc.
  ExecutionContext ctx;
  ctx.set_fault_plan(FaultPlan::parse("alloc@count:1"));
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  try {
    const TransitionSystem sys = make_ghz_system(mgr, 3);
    const auto engine = make_engine(mgr, "basic", &ctx);
    (void)reachable_space(*engine, sys, 16);
    FAIL() << "injected bad_alloc did not surface";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kMemory);
    EXPECT_NE(std::string(e.what()).find("out of memory"), std::string::npos);
  }
}

TEST(FaultInjection, NodeBudgetFaultIsDeterministic) {
  // Same plan, same workload -> the switch happens at the same iteration,
  // every run.
  std::vector<std::size_t> switch_iterations;
  for (int run = 0; run < 2; ++run) {
    ExecutionContext ctx;
    ctx.set_fault_plan(FaultPlan::parse("nodes@iter2"));
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const TransitionSystem sys = make_ghz_system(mgr, 4);
    const auto engine = make_engine(mgr, "fallback:contraction:2,2;basic", &ctx);
    auto& chain = dynamic_cast<FallbackImage&>(*engine);
    const auto r = reachable_space(*engine, sys, 16);
    EXPECT_TRUE(r.converged);
    ASSERT_EQ(chain.degradations().size(), 1u);
    EXPECT_EQ(chain.degradations()[0].cause, Resource::kNodes);
    switch_iterations.push_back(chain.degradations()[0].iteration);
    EXPECT_EQ(ctx.stats().degradations, 1u);
  }
  EXPECT_EQ(switch_iterations[0], 2u);
  EXPECT_EQ(switch_iterations[0], switch_iterations[1]);
}

TEST(FaultInjection, RealNodeBudgetFailsTypedWithoutAFallback) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "basic", &ctx);
  // Arm the budget only after the system is built, so the trip happens
  // inside the fixpoint loop.
  ctx.set_max_nodes(mgr.live_nodes() + 1);
  try {
    (void)reachable_space(*engine, sys, 16);
    FAIL() << "node budget did not trip";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kNodes);
    EXPECT_NE(std::string(e.what()).find("--max-nodes"), std::string::npos);
  }
}

TEST(FaultInjection, ParallelWorkersUnwindAndTheContextRearms) {
  // A budget fault tripping inside one spawned worker of a parallel round
  // must stop the sibling and surface as ResourceExhausted; the next round
  // starts with the engine's stop flag cleared (no poisoned later rounds) —
  // the exact state a fallback retry resumes from.
  ExecutionContext ctx;
  ctx.set_fault_plan(FaultPlan::parse("nodes@iter2"));
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  // Depolarising noise on qubits 0 and 1: 16 Kraus circuits, so every round
  // of the two-worker engine has at least 2 x kMinTasksPerShard tasks.
  TransitionSystem sys = make_ghz_system(mgr, 4);
  for (std::uint32_t q = 0; q < 2; ++q) {
    sys.operations[0].kraus =
        circ::apply_channel(sys.operations[0].kraus, circ::depolarizing(0.1), q);
  }
  ASSERT_EQ(sys.operations[0].kraus.size(), 16u);
  const auto engine = make_engine(mgr, "parallel:2", &ctx);

  // Iteration 1 prepares all 16 circuits on this thread, so the first node
  // allocated in iteration 2, where the fault is armed, is a worker's push.
  ctx.begin_iteration(1);
  Subspace acc = sys.initial;
  const std::vector<tdd::Edge> frontier =
      acc.add_states(engine->image_step(sys.operations, sys.initial.basis(), 4, nullptr));
  ASSERT_FALSE(frontier.empty());
  ctx.begin_iteration(2);
  std::size_t shards = 0;
  EXPECT_THROW((void)engine->image_step(sys.operations, frontier, 4, &shards), ResourceExhausted);
  EXPECT_EQ(shards, 2u);
  EXPECT_NO_THROW(ctx.check_deadline());

  // The fault is latched, so the same engine completes a fresh run.
  const auto r = reachable_space(*engine, sys, 16);
  EXPECT_TRUE(r.converged);
}

// ---------------------------------------------------------------------------
// The acceptance property: forced degradation through a whole chain, down
// to the parallel engine, preserves the verdict and the exact projector.

/// 4-qubit basis-permutation workload (X/CX gates + bit-flip noise): every
/// engine's arithmetic on it is exact, so results are comparable bit for
/// bit, and its reachable fixpoint needs several iterations — room to
/// degrade mid-run.
TransitionSystem make_flip_system(tdd::Manager& mgr, std::uint32_t n) {
  circ::Circuit step(n);
  step.x(0);
  for (std::uint32_t q = 0; q + 1 < n; ++q) step.cx(q, q + 1);
  std::vector<circ::Circuit> kraus =
      circ::apply_channel({std::move(step)}, circ::bit_flip(0.25), 0);
  return TransitionSystem{n, Subspace::from_states(mgr, n, {ket_basis(mgr, n, 0)}),
                          {QuantumOperation{"step", std::move(kraus)}}};
}

TEST(FaultInjection, ForcedChainDegradationPreservesTheExactResult) {
  for (int run = 0; run < 2; ++run) {  // twice: the switches must be deterministic
    ExecutionContext ctx;
    ctx.set_fault_plan(FaultPlan::parse("qubits@iter2,nonzeros@iter3"));
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const TransitionSystem sys = make_flip_system(mgr, 4);

    const auto engine = make_engine(
        mgr, "fallback:statevector;sparse;parallel:2", &ctx);
    auto& chain = dynamic_cast<FallbackImage&>(*engine);
    const auto degraded = reachable_space(*engine, sys, 16);

    // Same manager, no injection: a sequential TDD engine alone.
    const auto reference = reachable_space(*make_engine(mgr, "basic"), sys, 16);

    // Verdict and projector agree exactly: hash-consing makes pointer
    // equality on the same manager tensor equality up to the weight.
    EXPECT_EQ(degraded.converged, reference.converged);
    EXPECT_EQ(degraded.iterations, reference.iterations);
    EXPECT_EQ(degraded.space.dim(), reference.space.dim());
    EXPECT_EQ(degraded.space.projector().node, reference.space.projector().node);
    EXPECT_EQ(degraded.space.projector().weight, reference.space.projector().weight);

    // Both injected faults forced their switch, at their armed iteration.
    EXPECT_GE(ctx.stats().degradations, 1u);
    ASSERT_EQ(chain.degradations().size(), 2u);
    EXPECT_EQ(chain.active_index(), 2u);
    EXPECT_EQ(chain.degradations()[0].cause, Resource::kQubits);
    EXPECT_EQ(chain.degradations()[0].iteration, 2u);
    EXPECT_EQ(chain.degradations()[1].cause, Resource::kNonzeros);
    EXPECT_EQ(chain.degradations()[1].iteration, 3u);
    EXPECT_EQ(ctx.stats().degradations, 2u);
    EXPECT_EQ(ctx.stats().degradation_causes[static_cast<std::size_t>(Resource::kQubits)], 1u);
    EXPECT_EQ(ctx.stats().degradation_causes[static_cast<std::size_t>(Resource::kNonzeros)], 1u);
  }
}

TEST(FaultInjection, ExhaustedChainCarriesTheFullCauseTrail) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "fallback:basic;addition:1", &ctx);
  // A live-node ceiling is a budget no backend switch can cure: the chain
  // must fall through both elements and report the whole trail.
  ctx.set_max_nodes(mgr.live_nodes() + 1);
  try {
    (void)reachable_space(*engine, sys, 16);
    FAIL() << "exhausted chain did not throw";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kNodes);
    const std::string what = e.what();
    EXPECT_NE(what.find("fallback chain exhausted"), std::string::npos);
    EXPECT_NE(what.find("basic"), std::string::npos);
    EXPECT_NE(what.find("addition:1"), std::string::npos);
  }
  EXPECT_EQ(ctx.stats().degradations, 1u);  // the one switch that was tried
}

}  // namespace
}  // namespace qts
