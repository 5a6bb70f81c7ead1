/// Tests for the FixpointDriver and sharded reachability: differential
/// equivalence of the sharded frontier iteration (`parallel:N`) against the
/// sequential engines over the workload circuits, bit-for-bit determinism
/// across runs and thread counts, deadline propagation out of frontier
/// shards, GC safety (including the invariant subspace as an extra root),
/// the per-iteration statistics surface, and every image entry point over
/// the one image_step hook on every kind of engine.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "circuit/noise.hpp"
#include "common/error.hpp"
#include "qts/engine.hpp"
#include "qts/fixpoint.hpp"
#include "qts/reachability.hpp"
#include "qts/workloads.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

using test::with_depolarizing;

using SystemFactory = TransitionSystem (*)(tdd::Manager&);

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

TEST(ShardedReachability, MatchesSequentialEnginesOnWorkloads) {
  for (const auto& [name, make_system] : workload_systems()) {
    for (const char* sequential_spec : {"basic", "contraction:2,2"}) {
      tdd::Manager mgr;
      const TransitionSystem sys = make_system(mgr);
      const auto sequential = make_engine(mgr, sequential_spec);
      const auto expected = reachable_space(*sequential, sys, 64);
      for (std::size_t threads : {1u, 2u, 4u}) {
        const std::string spec = "parallel:" + std::to_string(threads);
        const auto parallel = make_engine(mgr, spec);
        const auto got = reachable_space(*parallel, sys, 64);
        EXPECT_EQ(got.iterations, expected.iterations) << name << " " << spec;
        EXPECT_EQ(got.converged, expected.converged) << name << " " << spec;
        EXPECT_EQ(got.space.dim(), expected.space.dim()) << name << " " << spec;
        EXPECT_TRUE(got.space.same_subspace(expected.space)) << name << " " << spec;
      }
    }
  }
}

TEST(ShardedReachability, InvariantVerdictsMatchSequentialOnWorkloads) {
  for (const auto& [name, make_system] : workload_systems()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const auto sequential = make_engine(mgr, "basic");
    const auto expected = check_invariant(*sequential, sys, sys.initial, 16);
    for (std::size_t threads : {1u, 2u, 4u}) {
      const std::string spec = "parallel:" + std::to_string(threads);
      const auto parallel = make_engine(mgr, spec);
      const auto got = check_invariant(*parallel, sys, sys.initial, 16);
      EXPECT_EQ(got.holds, expected.holds) << name << " " << spec;
      EXPECT_EQ(got.iterations, expected.iterations) << name << " " << spec;
      EXPECT_EQ(got.converged, expected.converged) << name << " " << spec;
    }
  }
}

TEST(ShardedReachability, BitForBitDeterministicAcrossRunsAndThreadCounts) {
  tdd::Manager mgr;
  const TransitionSystem sys = with_depolarizing(make_qrw_system(mgr, 4, 0.1, true, 0));

  // Two independent runs at 4 threads, plus runs at 1 and 2 threads, all in
  // one manager: hash-consing turns "bit-for-bit identical subspace" into
  // literal node-pointer equality of the projector TDDs and every basis ket.
  const auto run = [&](std::size_t threads) {
    const auto engine = make_engine(mgr, "parallel:" + std::to_string(threads));
    return reachable_space(*engine, sys, 32);
  };
  const auto first = run(4);
  const auto second = run(4);
  const auto one = run(1);
  const auto two = run(2);

  for (const auto* other : {&second, &one, &two}) {
    EXPECT_EQ(first.iterations, other->iterations);
    EXPECT_EQ(first.converged, other->converged);
    ASSERT_EQ(first.space.dim(), other->space.dim());
    EXPECT_EQ(first.space.projector().node, other->space.projector().node);
    EXPECT_TRUE(tdd::same_tensor(first.space.projector(), other->space.projector()));
    for (std::size_t i = 0; i < first.space.dim(); ++i) {
      EXPECT_EQ(first.space.basis()[i].node, other->space.basis()[i].node) << "ket " << i;
    }
  }
}

TEST(ShardedReachability, FrontierPathPerformsZeroTransfers) {
  // The shared-manager engine works in place: workers apply Kraus operators
  // and filter against the accumulator projector directly on the one
  // manager, so no diagram is copied between node pools.  The multi-threaded
  // fixpoint therefore lands on the very projector node the sequential
  // engine builds in the same manager.
  tdd::Manager mgr;
  const TransitionSystem sys = with_depolarizing(make_qrw_system(mgr, 4, 0.1, true, 0));
  const auto sequential = make_engine(mgr, "contraction:4,4");
  const auto parallel = make_engine(mgr, "parallel:4");
  const auto seq = reachable_space(*sequential, sys, 32);
  const auto r = reachable_space(*parallel, sys, 32);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.space.dim(), 1u);
  EXPECT_EQ(r.space.dim(), seq.space.dim());
  EXPECT_EQ(r.space.projector().node, seq.space.projector().node);
  EXPECT_TRUE(tdd::same_tensor(r.space.projector(), seq.space.projector()));
}

TEST(ShardedReachability, DeadlineInsideFrontierShardPropagatesAndRearms) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 4));
  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  // A tiny but non-zero budget: the driver's top-of-iteration poll passes,
  // so the expiry fires inside a worker's Kraus application and crosses the
  // shard join as DeadlineExceeded.
  ctx.set_deadline(Deadline::after(1e-4));
  EXPECT_THROW((void)reachable_space(*engine, sys, 32), DeadlineExceeded);

  // The cancellation the timed-out worker raised was re-armed on join: with
  // a fresh deadline the same engine and context converge normally.
  ctx.set_deadline(Deadline::after(3600.0));
  const auto r = reachable_space(*engine, sys, 32);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.space.dim(), 1u);
}

TEST(FixpointDriver, ObserverAndHistoryReportEveryIteration) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto engine = make_engine(mgr, "basic");
  FixpointDriver driver(*engine, sys);
  std::vector<IterationStats> seen;
  driver.set_max_iterations(64).set_observer(
      [&seen](const IterationStats& it) { seen.push_back(it); });
  const auto r = driver.run();
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(seen.size(), r.iterations);
  ASSERT_EQ(driver.history().size(), r.iterations);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].iteration, i + 1);
    EXPECT_EQ(seen[i].shards, 1u);  // sequential path
    EXPECT_GE(seen[i].frontier_dim, 1u);
    EXPECT_EQ(driver.history()[i].acc_dim, seen[i].acc_dim);
  }
  // The last iteration is the one that found the fixpoint: nothing survived.
  EXPECT_EQ(seen.back().survivors, 0u);
  EXPECT_EQ(seen.back().acc_dim, r.space.dim());
}

TEST(FixpointDriver, ShardCountsReportedOnTheShardedPath) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  FixpointDriver driver(*engine, sys);
  driver.set_max_iterations(64);
  const auto r = driver.run();
  EXPECT_TRUE(r.converged);
  bool saw_multi_shard = false;
  for (const auto& it : driver.history()) {
    EXPECT_GE(it.shards, 1u);
    EXPECT_LE(it.shards, 2u);  // never more shards than workers
    saw_multi_shard = saw_multi_shard || it.shards == 2;
  }
  // Sharding is at ket×Kraus task grain: even the 1-ket initial frontier
  // spreads its 4 depolarizing Kraus circuits over both workers.
  EXPECT_TRUE(saw_multi_shard);
  // The context's aggregate counters mirror the history.
  std::size_t kets = 0, shards = 0, candidates = 0, survivors = 0, widest = 0;
  for (const auto& it : driver.history()) {
    kets += it.frontier_dim;
    shards += it.shards;
    candidates += it.candidates;
    survivors += it.survivors;
    widest = std::max(widest, it.frontier_dim);
  }
  EXPECT_EQ(ctx.stats().fixpoint_iterations, r.iterations);
  EXPECT_EQ(ctx.stats().frontier_kets, kets);
  EXPECT_EQ(ctx.stats().frontier_shards, shards);
  EXPECT_EQ(ctx.stats().frontier_candidates, candidates);
  EXPECT_EQ(ctx.stats().frontier_survivors, survivors);
  EXPECT_EQ(ctx.stats().max_frontier_dim, widest);
}

TEST(FixpointDriver, PredicateStopsAtFirstOffendingSurvivor) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto engine = make_engine(mgr, "basic");
  FixpointDriver driver(*engine, sys);
  std::size_t evaluated = 0;
  driver.set_max_iterations(64).set_frontier_predicate([&evaluated](const tdd::Edge&) {
    ++evaluated;
    return false;  // reject everything
  });
  const auto r = driver.run();
  EXPECT_TRUE(r.predicate_violated);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_EQ(evaluated, 1u);  // stopped at the first survivor
}

TEST(Invariant, HonoursGcThresholdWithInvariantAsRoot) {
  // Floor 1 with growth 1.0 forces a collection before every iteration; the
  // invariant subspace lives in the same manager and must be kept as a GC
  // root by the driver, or its projector would be swept mid-run.
  ExecutionContext ctx;
  ctx.set_adaptive_gc(true, 1, 1.0);
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_grover_system(mgr, 4);
  const auto engine = make_engine(mgr, "basic", &ctx);
  const auto result = check_invariant(*engine, sys, sys.initial, 10);
  EXPECT_TRUE(result.holds);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(ctx.stats().gc_runs, 0u);  // the satellite fix: invar GCs at all
}

TEST(Invariant, GcVerdictsUnchangedUnderPressure) {
  // A violated invariant stays violated (same iteration) when GC runs every
  // iteration, sequentially and sharded.
  for (const char* spec : {"basic", "parallel:2"}) {
    ExecutionContext ctx;
    ctx.set_adaptive_gc(true, 1, 1.0);
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const TransitionSystem sys = make_ghz_system(mgr, 3);
    const Subspace claim = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 0)});
    const auto engine = make_engine(mgr, spec, &ctx);
    const auto result = check_invariant(*engine, sys, claim, 10);
    EXPECT_FALSE(result.holds) << spec;
    EXPECT_EQ(result.iterations, 1u) << spec;
  }
}

TEST(ShardedReachability, GcThresholdKeepsResultsIdentical) {
  // Parent- and worker-side GC every iteration must not change the sharded
  // fixpoint (the determinism guarantee is about values, not node pools).
  tdd::Manager plain_mgr;
  const TransitionSystem plain_sys = with_depolarizing(make_ghz_system(plain_mgr, 3));
  const auto plain_engine = make_engine(plain_mgr, "parallel:2");
  const auto expected = reachable_space(*plain_engine, plain_sys, 32);

  ExecutionContext ctx;
  ctx.set_adaptive_gc(true, 1, 1.0);
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  const auto got = reachable_space(*engine, sys, 32);
  EXPECT_GT(ctx.stats().gc_runs, 0u);
  EXPECT_EQ(got.iterations, expected.iterations);
  EXPECT_EQ(got.space.dim(), expected.space.dim());
  EXPECT_TRUE(got.space.same_subspace(expected.space));
}

TEST(FixpointDriver, AdaptiveGcTriggersOnGrowthAndKeepsVerdictsUnchanged) {
  // Reference run: adaptive GC off, no manual threshold — no collections.
  tdd::Manager ref_mgr;
  const TransitionSystem ref_sys = with_depolarizing(make_qrw_system(ref_mgr, 4, 0.1, true, 0));
  ExecutionContext ref_ctx;
  ref_ctx.set_adaptive_gc(false);
  ref_mgr.bind_context(&ref_ctx);
  const auto ref_engine = make_engine(ref_mgr, "basic", &ref_ctx);
  const auto expected = reachable_space(*ref_engine, ref_sys, 32);
  EXPECT_EQ(ref_ctx.stats().gc_runs, 0u);

  // Same workload under an aggressive adaptive policy (floor 1, growth 1.0:
  // the pool has always "grown" past its post-GC baseline, so every
  // iteration collects) — the verdict must not move.
  tdd::Manager mgr;
  const TransitionSystem sys = with_depolarizing(make_qrw_system(mgr, 4, 0.1, true, 0));
  ExecutionContext ctx;
  ctx.set_adaptive_gc(true, /*floor=*/1, /*growth=*/1.0);
  mgr.bind_context(&ctx);
  const auto engine = make_engine(mgr, "basic", &ctx);
  FixpointDriver driver(*engine, sys);
  driver.set_max_iterations(32);
  const auto r = driver.run();
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, expected.iterations);
  EXPECT_EQ(r.space.dim(), expected.space.dim());
  EXPECT_GT(ctx.stats().gc_runs, 0u);
  ASSERT_EQ(driver.history().size(), r.iterations);
  bool saw_gc = false;
  for (const auto& it : driver.history()) {
    EXPECT_GT(it.live_nodes, 0u) << "iteration " << it.iteration;
    saw_gc = saw_gc || it.gc;
  }
  EXPECT_TRUE(saw_gc);

  // The default policy (adaptive on, production floor) never fires on a
  // workload this small: the floor is what keeps short runs collection-free.
  ExecutionContext default_ctx;
  EXPECT_TRUE(default_ctx.adaptive_gc());
  const auto default_engine = make_engine(mgr, "basic", &default_ctx);
  FixpointDriver default_driver(*default_engine, sys);
  default_driver.set_max_iterations(32).keep_alive(r.space);
  const auto r2 = default_driver.run();
  EXPECT_EQ(r2.space.dim(), expected.space.dim());
  EXPECT_EQ(default_ctx.stats().gc_runs, 0u);
}

// ---------------------------------------------------------------------------
// Every entry point over the one image_step hook, on every kind of engine

/// Span of a ket family, as a subspace.
Subspace span_of(tdd::Manager& mgr, std::uint32_t n, const std::vector<tdd::Edge>& kets) {
  Subspace out(mgr, n);
  (void)out.add_states(kets);
  return out;
}

class EntryPoints : public ::testing::TestWithParam<std::string> {};

TEST_P(EntryPoints, SpanTheSameSubspaceAsBasic) {
  const std::pair<std::string, SystemFactory> systems[] = {
      {"ghz3", [](tdd::Manager& m) { return make_ghz_system(m, 3); }},
      {"bitflip-code", [](tdd::Manager& m) { return make_bitflip_code_system(m); }},
  };
  for (const auto& [label, make_system] : systems) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const Subspace& s = sys.initial;
    const std::uint32_t n = s.num_qubits();
    const auto reference = make_engine(mgr, "basic");
    const auto engine = make_engine(mgr, GetParam());

    for (const QuantumOperation& op : sys.operations) {
      EXPECT_TRUE(engine->image(op, s).same_subspace(reference->image(op, s))) << label;
    }
    const Subspace expected = reference->image(sys, s);
    EXPECT_TRUE(engine->image(sys, s).same_subspace(expected)) << label;
    const std::vector<tdd::Edge> kets = engine->image_kets(sys, s.basis(), n);
    EXPECT_TRUE(span_of(mgr, n, kets).same_subspace(expected)) << label;

    // A frontier step: candidates ∪ S spans T(S) ∨ S.
    Subspace expected_step = s;
    expected_step.join(expected);
    Subspace step = s;
    std::size_t shards = 0;
    (void)step.add_states(engine->frontier_candidates(sys, s.basis(), n, s.projector(), &shards));
    EXPECT_TRUE(step.same_subspace(expected_step)) << label;
    EXPECT_GE(shards, 1u) << label;

    // No engine filters against the accumulator: even one that already
    // holds every image gets image_kets' edges back, node and weight.
    const std::vector<tdd::Edge> unfiltered =
        engine->frontier_candidates(sys, s.basis(), n, expected.projector(), nullptr);
    ASSERT_EQ(unfiltered.size(), kets.size()) << label;
    for (std::size_t i = 0; i < kets.size(); ++i) {
      EXPECT_EQ(unfiltered[i].node, kets[i].node) << label << " image " << i;
      EXPECT_EQ(unfiltered[i].weight, kets[i].weight) << label << " image " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryEngine, EntryPoints,
                         ::testing::Values("basic", "addition:1", "contraction:2,2", "statevector",
                                           "sparse", "parallel:2", "fallback:statevector:2;parallel:2",
                                           "fallback:statevector:2;basic",
                                           "fallback:statevector:3;basic"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return name;
                         });

TEST(FixpointDriver, ApplyKrausOnStepOnlyEnginesIsAnInvalidArgument) {
  // The seam engines and fallback chains image only through image_step;
  // the public per-ket building block must say so, not claim a library bug.
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const circ::Circuit& kraus = sys.operations.front().kraus.front();
  for (const char* spec : {"statevector", "fallback:statevector:2;basic"}) {
    const auto engine = make_engine(mgr, spec);
    try {
      (void)engine->apply_kraus(kraus, sys.initial.basis().front());
      ADD_FAILURE() << spec << ": apply_kraus did not throw";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(engine->name()), std::string::npos) << what;
      EXPECT_NE(what.find("image_step"), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace qts
