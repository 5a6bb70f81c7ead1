/// Tests for the parallel image engine: node-for-node equivalence with
/// contraction:4,4 over the paper workloads for 1/2/4 workers, one
/// preparation per Kraus circuit, thread-count-independent (deterministic)
/// joins, merged stats, shared deadlines with cooperative stopping, the
/// worker-count cap, worker-slot reuse across engines, and fixpoint-loop
/// integration.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "circuit/noise.hpp"
#include "common/error.hpp"
#include "qts/backward.hpp"
#include "qts/engine.hpp"
#include "qts/fixpoint.hpp"
#include "qts/parallel.hpp"
#include "qts/reachability.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

using test::with_depolarizing;

using SystemFactory = TransitionSystem (*)(tdd::Manager&);

const std::vector<std::pair<std::string, SystemFactory>>& paper_workloads() {
  static const std::vector<std::pair<std::string, SystemFactory>> workloads = {
      {"ghz4", [](tdd::Manager& m) { return make_ghz_system(m, 4); }},
      {"qft4", [](tdd::Manager& m) { return make_qft_system(m, 4); }},
      {"grover7", [](tdd::Manager& m) { return make_grover_system(m, 7); }},
      {"noisy-qrw5", [](tdd::Manager& m) { return make_qrw_system(m, 5, 0.1, true, 0); }},
      {"bitflip-code", [](tdd::Manager& m) { return make_bitflip_code_system(m); }},
      {"depol-ghz3",
       [](tdd::Manager& m) { return with_depolarizing(make_ghz_system(m, 3)); }},
  };
  return workloads;
}

TEST(ParallelImage, MatchesSequentialInnerEngineOnPaperWorkloads) {
  // The workers push through contraction:4,4's prepared terms, so the image
  // is that engine's node for node; it spans what basic's spans.
  for (const auto& [name, make_system] : paper_workloads()) {
    tdd::Manager mgr;
    const TransitionSystem sys = make_system(mgr);
    const Subspace expected = make_engine(mgr, "contraction:4,4")->image(sys, sys.initial);
    const Subspace reference = make_engine(mgr, "basic")->image(sys, sys.initial);
    for (std::size_t threads : {1u, 2u, 4u}) {
      const std::string spec = "parallel:" + std::to_string(threads);
      const Subspace got = make_engine(mgr, spec)->image(sys, sys.initial);
      EXPECT_EQ(got.dim(), expected.dim()) << name << " " << spec;
      EXPECT_EQ(got.projector().node, expected.projector().node) << name << " " << spec;
      EXPECT_EQ(got.projector().weight, expected.projector().weight) << name << " " << spec;
      EXPECT_TRUE(got.same_subspace(reference)) << name << " " << spec;
    }
  }
}

TEST(ParallelImage, PreparesEachKrausCircuitOnce) {
  // Eight basis kets of GHZ3 through its one circuit: 8 tasks, so two
  // workers run a shard each.  The circuit is prepared once, on the
  // caller's thread, and plans what contraction:4,4 plans.
  const auto plans = [](const std::string& spec) {
    ExecutionContext ctx;
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const TransitionSystem sys = make_ghz_system(mgr, 3);
    std::vector<tdd::Edge> kets;
    for (std::uint64_t b = 0; b < 8; ++b) kets.push_back(ket_basis(mgr, 3, b));
    const auto engine = make_engine(mgr, spec, &ctx);
    std::size_t shards = 0;
    EXPECT_EQ(engine->image_step(sys.operations, kets, 3, &shards).size(), 8u) << spec;
    EXPECT_EQ(shards, spec == "parallel:2" ? 2u : 1u) << spec;
    return ctx.stats().plans_computed;
  };
  const std::size_t sequential = plans("contraction:4,4");
  EXPECT_EQ(sequential, 2u);
  EXPECT_EQ(plans("parallel:2"), sequential);
}

TEST(ParallelImage, JoinIsIndependentOfThreadCount) {
  tdd::Manager mgr;
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 4));
  const auto two = make_engine(mgr, "parallel:2");
  const auto four = make_engine(mgr, "parallel:4");
  const Subspace a = two->image(sys, sys.initial);
  const Subspace b = four->image(sys, sys.initial);
  ASSERT_EQ(a.dim(), b.dim());
  // Deterministic join: identical basis vectors in identical order, not just
  // the same span.  Hash-consing makes this literal pointer equality.
  for (std::size_t i = 0; i < a.dim(); ++i) {
    EXPECT_EQ(a.basis()[i].node, b.basis()[i].node) << "basis vector " << i;
    EXPECT_TRUE(tdd::same_tensor(a.basis()[i], b.basis()[i])) << "basis vector " << i;
  }
}

TEST(ParallelImage, MergesWorkerStatsIntoParentContext) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  const Subspace img = engine->image(sys, sys.initial);
  EXPECT_GE(img.dim(), 1u);
  // 4 Kraus circuits x 1 initial basis ket, counted inside the workers and
  // summed into the parent context on join.
  EXPECT_EQ(ctx.stats().kraus_applications, 4u);
  EXPECT_GT(ctx.stats().peak_nodes, 0u);
  EXPECT_GT(ctx.stats().seconds, 0.0);
}

TEST(ParallelImage, ReportsNameThreadsAndInnerSpec) {
  tdd::Manager mgr;
  const auto engine = make_engine(mgr, "parallel:3");
  EXPECT_EQ(engine->name(), "parallel");
  const auto& par = dynamic_cast<const ParallelImage&>(*engine);
  EXPECT_EQ(par.threads(), 3u);
  // The workers push through the inherited (4, 4) contraction partition.
  EXPECT_EQ(par.k1(), 4u);
  EXPECT_EQ(par.k2(), 4u);

  // threads = 0 resolves to hardware concurrency, clamped to the cap.
  const auto auto_sized = make_engine(mgr, "parallel:0");
  const std::size_t workers = dynamic_cast<const ParallelImage&>(*auto_sized).threads();
  EXPECT_GE(workers, 1u);
  EXPECT_LE(workers, ParallelImage::kMaxParallelThreads);
}

TEST(ParallelImage, RefusesMoreWorkersThanTheCapBeforeTakingASlot) {
  // The cap holds for direct construction too, and is checked before any
  // slot is created (the constructor starts no thread either way).
  tdd::Manager mgr;
  EXPECT_THROW((void)ParallelImage(mgr, ParallelImage::kMaxParallelThreads + 1),
               InvalidArgument);
  EXPECT_EQ(mgr.storage_stats().op_slots, 1u);
}

TEST(ParallelImage, ExpiredDeadlineInsideWorkersPropagates) {
  ExecutionContext ctx;
  ctx.set_deadline(Deadline::after(1e-9));
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 4));
  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  EXPECT_THROW((void)engine->image(sys, sys.initial), DeadlineExceeded);

  // The next round clears the engine's stop flag: with a fresh deadline the
  // same engine (and the same parent context) computes normally.
  ctx.set_deadline(Deadline::after(3600.0));
  const Subspace img = engine->image(sys, sys.initial);
  EXPECT_GE(img.dim(), 1u);
}

TEST(ParallelImage, ReachabilityFixpointMatchesSequential) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto sequential = make_engine(mgr, "contraction:4,4");
  const auto r_seq = reachable_space(*sequential, sys, 64);

  const auto parallel = make_engine(mgr, "parallel:2");
  const auto r_par = reachable_space(*parallel, sys, 64);
  EXPECT_EQ(r_par.iterations, r_seq.iterations);
  EXPECT_EQ(r_par.converged, r_seq.converged);
  EXPECT_EQ(r_par.space.dim(), r_seq.space.dim());
  EXPECT_TRUE(r_par.space.same_subspace(r_seq.space));
}

TEST(ParallelImage, FrontierStepReturnsEveryImage) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_bitflip_code_system(mgr);
  const std::uint32_t n = sys.num_qubits;
  const auto sequential = make_engine(mgr, "contraction:4,4");
  const auto parallel = make_engine(mgr, "parallel:4");

  // One fixpoint step, so some images of the new frontier already lie in
  // the accumulator.
  Subspace acc = sys.initial;
  const std::vector<tdd::Edge> frontier =
      acc.add_states(sequential->image_kets(sys, sys.initial.basis(), n));
  ASSERT_FALSE(frontier.empty());
  const std::vector<tdd::Edge> images = sequential->image_kets(sys, frontier, n);
  std::size_t inside = 0;
  for (const auto& phi : images) inside += acc.contains(phi) ? 1 : 0;
  ASSERT_GT(inside, 0u);

  // Images already inside the accumulator come back too: the frontier step
  // is image_kets, node for node and weight for weight, in the same order.
  const std::vector<tdd::Edge> candidates =
      parallel->frontier_candidates(sys, frontier, n, acc.projector(), nullptr);
  const std::vector<tdd::Edge> own = parallel->image_kets(sys, frontier, n);
  ASSERT_EQ(candidates.size(), images.size());
  ASSERT_EQ(own.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(candidates[i].node, own[i].node) << "image " << i;
    EXPECT_EQ(candidates[i].weight, own[i].weight) << "image " << i;
    EXPECT_TRUE(candidates[i].approx(images[i])) << "image " << i;
  }

  // So the driver hands Gram-Schmidt the same candidates per iteration.
  FixpointDriver by_par(*parallel, sys);
  FixpointDriver by_seq(*sequential, sys);
  by_par.set_max_iterations(64);
  by_seq.set_max_iterations(64);
  (void)by_par.run();
  (void)by_seq.run();
  ASSERT_EQ(by_par.history().size(), by_seq.history().size());
  for (std::size_t i = 0; i < by_seq.history().size(); ++i) {
    EXPECT_EQ(by_par.history()[i].candidates, by_seq.history()[i].candidates) << "iteration " << i;
  }
}

TEST(ParallelImage, DriverGcPolicyCoversWorkerAllocationsInTheSharedManager) {
  // Since the shared-manager rewrite the parallel engine performs no GC of
  // its own: worker allocations land in the one shared manager, and the
  // driver's quiescent-point policy must bound them.  The prepared operators
  // the workers read live in the shared manager too, so every collection
  // must keep the engine's prepared_roots (sweeping them would corrupt the
  // run).
  ExecutionContext ctx;
  ctx.set_adaptive_gc(true, 1, 1.0);  // collect at the top of every iteration
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto reference = make_engine(mgr, "basic");
  const auto expected = reachable_space(*reference, sys, 32);

  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  FixpointDriver driver(*engine, sys);
  driver.set_max_iterations(32).keep_alive(expected.space);
  const auto r = driver.run();
  EXPECT_EQ(r.iterations, expected.iterations);
  EXPECT_TRUE(r.space.same_subspace(expected.space));
  EXPECT_GT(ctx.stats().gc_runs, 0u);
}

TEST(ParallelImage, ReportsSharedStorageGaugesThroughRunStats) {
  // The engine samples no storage: the shared manager's shape is read once,
  // after the run, by whoever wants it — into a RunStats through
  // Manager::sample_storage, or whole from Manager::storage_stats().
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 3));
  const auto engine = make_engine(mgr, "parallel:2", &ctx);
  const Subspace img = engine->image(sys, sys.initial);
  EXPECT_GE(img.dim(), 1u);
  EXPECT_EQ(ctx.stats().table_nodes, 0u);
  mgr.sample_storage(ctx.stats());
  EXPECT_GT(ctx.stats().table_nodes, 0u);
  const tdd::Manager::StorageStats st = mgr.storage_stats();
  EXPECT_EQ(st.table_nodes, ctx.stats().table_nodes);
  EXPECT_GT(st.table_shards, 0u);
  EXPECT_GT(st.table_load_factor, 0.0);
  EXPECT_GE(st.arena_blocks, 1u);
  EXPECT_GE(st.arena_capacity, st.table_nodes);
  // At quiescence every live node is interned: the table and the arena's
  // live counter must agree exactly.
  EXPECT_EQ(st.table_nodes, st.live_nodes);
}

TEST(ParallelImage, AdaptiveShardSizingDerivesShardsFromTaskCount) {
  tdd::Manager mgr;
  const auto engine = make_engine(mgr, "parallel:4");
  const auto& par = dynamic_cast<const ParallelImage&>(*engine);
  EXPECT_EQ(par.shard_count(0), 0u);
  // Too few tasks for two shards: one shard, run inline, no pool.
  for (std::size_t t = 1; t <= ParallelImage::kMinTasksPerShard; ++t) {
    EXPECT_EQ(par.shard_count(t), 1u) << t << " tasks";
  }
  // Above that: one shard per full kMinTasksPerShard tasks (floor — a shard
  // never holds fewer than kMinTasksPerShard tasks)...
  EXPECT_EQ(par.shard_count(ParallelImage::kMinTasksPerShard + 1), 1u);
  EXPECT_EQ(par.shard_count(2 * ParallelImage::kMinTasksPerShard - 1), 1u);
  EXPECT_EQ(par.shard_count(2 * ParallelImage::kMinTasksPerShard), 2u);
  EXPECT_EQ(par.shard_count(3 * ParallelImage::kMinTasksPerShard + 1), 3u);
  // ...capped at the worker count.
  EXPECT_EQ(par.shard_count(100 * ParallelImage::kMinTasksPerShard), 4u);
}

TEST(ParallelImage, AdaptiveShardSizingIsDeterministicAtTheBoundary) {
  // Task counts straddling the inline threshold — ghz3+depol is 4 tasks per
  // 1-ket frontier (inline path), qrw4+depol is 8 (two shards) — must leave
  // the fixpoint bit-for-bit identical across thread counts, and the shard
  // history must reflect the adaptive sizing.
  struct Boundary {
    const char* name;
    TransitionSystem (*make_system)(tdd::Manager&);
    std::size_t first_iteration_shards;  // with >= 2 workers
  };
  const Boundary cases[] = {
      {"ghz3-depol-4tasks",
       [](tdd::Manager& m) { return with_depolarizing(make_ghz_system(m, 3)); }, 1u},
      {"qrw4-depol-8tasks",
       [](tdd::Manager& m) { return with_depolarizing(make_qrw_system(m, 4, 0.1, true, 0)); },
       2u},
  };
  for (const auto& c : cases) {
    tdd::Manager mgr;
    const TransitionSystem sys = c.make_system(mgr);
    const auto reference = make_engine(mgr, "basic");
    const auto expected = reachable_space(*reference, sys, 32);

    std::vector<ReachabilityResult> runs;
    for (std::size_t threads : {1u, 2u, 4u}) {
      const auto engine = make_engine(mgr, "parallel:" + std::to_string(threads));
      FixpointDriver driver(*engine, sys);
      driver.set_max_iterations(32);
      auto r = driver.run();
      if (threads >= 2) {
        ASSERT_FALSE(driver.history().empty()) << c.name;
        EXPECT_EQ(driver.history().front().shards, c.first_iteration_shards) << c.name;
      }
      runs.push_back({std::move(r.space), r.iterations, r.converged});
    }
    for (const auto& got : runs) {
      EXPECT_EQ(got.iterations, expected.iterations) << c.name;
      EXPECT_EQ(got.space.dim(), expected.space.dim()) << c.name;
      EXPECT_TRUE(got.space.same_subspace(expected.space)) << c.name;
    }
    // Hash-consing makes bit-for-bit equality literal pointer equality.
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].space.projector().node, runs[0].space.projector().node) << c.name;
    }
  }
}

TEST(ParallelImage, ClearPreparedReachesTheWorkerCaches) {
  // back_image prepares temporary adjoint circuits and relies on
  // clear_prepared() to drop the address-keyed cache before it dangles; the
  // parallel engine's workers read that cache, so repeated backward images
  // must keep agreeing with a sequential engine.
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto sequential = make_engine(mgr, "basic");
  const Subspace expected = back_image(*sequential, sys.operations[0], sys.initial);

  const auto parallel = make_engine(mgr, "parallel:2");
  const Subspace first = back_image(*parallel, sys.operations[0], sys.initial);
  const Subspace second = back_image(*parallel, sys.operations[0], sys.initial);
  EXPECT_TRUE(first.same_subspace(expected));
  EXPECT_TRUE(second.same_subspace(expected));
}

TEST(ParallelImage, EmptySubspaceYieldsEmptyImage) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const auto engine = make_engine(mgr, "parallel:2");
  const Subspace empty(mgr, 3);
  EXPECT_EQ(engine->image(sys, empty).dim(), 0u);
}

TEST(ParallelImage, DestroyedEnginesGiveTheirSlotsBack) {
  // Each engine takes one slot per worker; destroying it hands them back,
  // so engine after engine on one manager reuses the same four (plus the
  // main slot), and the bits do not depend on which engine ran before.
  ExecutionContext ctx;
  ctx.set_adaptive_gc(true, 1, 1.0);  // recycle nodes into the slots' free lists
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = with_depolarizing(make_ghz_system(mgr, 4));
  std::optional<Subspace> first;
  for (int run = 0; run < 4; ++run) {
    {
      const auto engine = make_engine(mgr, "parallel:4", &ctx);
      FixpointDriver driver(*engine, sys);
      driver.set_max_iterations(64);
      if (first) driver.keep_alive(*first);
      const auto r = driver.run();
      EXPECT_TRUE(r.converged);
      if (!first) {
        first = r.space;
      } else {
        EXPECT_EQ(r.space.projector().node, first->projector().node) << "run " << run;
        EXPECT_EQ(r.space.projector().weight, first->projector().weight) << "run " << run;
      }
    }
    EXPECT_EQ(mgr.storage_stats().op_slots, 5u) << "run " << run;
  }
  EXPECT_GT(ctx.stats().gc_runs, 0u);
}

TEST(ParallelImage, RejectsNestedParallelInner) {
  // The parallel engine takes a thread count and nothing else.
  tdd::Manager mgr;
  EXPECT_THROW((void)make_engine(mgr, "parallel:2,parallel:2"), InvalidArgument);
}

}  // namespace
}  // namespace qts
