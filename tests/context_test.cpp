/// Tests for the ExecutionContext run-control spine: stats aggregation,
/// deadline propagation through contract_network and the image engines, and
/// the GC policy knob.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "circuit/generators.hpp"
#include "common/execution_context.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/simulate.hpp"
#include "qts/workloads.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"

namespace qts {
namespace {

TEST(ExecutionContext, DefaultsAreInert) {
  ExecutionContext ctx;
  EXPECT_FALSE(ctx.deadline_expired());
  EXPECT_NO_THROW(ctx.check_deadline());
  EXPECT_EQ(ctx.stats().peak_nodes, 0u);
  EXPECT_EQ(ctx.stats().seconds, 0.0);
  EXPECT_TRUE(ctx.adaptive_gc());
  EXPECT_EQ(ctx.adaptive_gc_floor(), ExecutionContext::kAdaptiveGcFloor);
  EXPECT_EQ(ctx.adaptive_gc_growth(), ExecutionContext::kAdaptiveGcGrowth);
}

TEST(ExecutionContext, RecordPeakKeepsTheMaximum) {
  ExecutionContext ctx;
  ctx.record_peak(7);
  ctx.record_peak(3);
  EXPECT_EQ(ctx.stats().peak_nodes, 7u);
  ctx.record_peak(11);
  EXPECT_EQ(ctx.stats().peak_nodes, 11u);
  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().peak_nodes, 0u);
}

TEST(ExecutionContext, ScopedTimerAccumulates) {
  ExecutionContext ctx;
  {
    ScopedTimer t(&ctx);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double first = ctx.stats().seconds;
  EXPECT_GT(first, 0.0);
  {
    ScopedTimer t(&ctx);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(ctx.stats().seconds, first);
}

TEST(ExecutionContext, HitRateHandlesZeroLookups) {
  EXPECT_EQ(hit_rate_pct(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(hit_rate_pct(3, 1), 75.0);
}

TEST(ExecutionContext, WorkerViewSharesDeadlineAndStartsFresh) {
  ExecutionContext parent;
  parent.set_deadline(Deadline::after(1e-12));
  parent.set_adaptive_gc(true, 42, 1.5);
  parent.set_audit_every(3);
  parent.record_peak(7);
  const ExecutionContext view = parent.worker_view();
  EXPECT_TRUE(view.deadline_expired());            // shared absolute expiry
  EXPECT_EQ(view.stats().peak_nodes, 0u);          // fresh stats
  EXPECT_THROW(view.check_deadline(), DeadlineExceeded);
  // Workers run no fixpoint loop, so the GC and audit policy stay behind.
  EXPECT_EQ(view.adaptive_gc_floor(), ExecutionContext::kAdaptiveGcFloor);
  EXPECT_EQ(view.audit_every(), 0u);
}

TEST(ExecutionContext, WorkerViewStopsOnItsEnginesFlag) {
  ExecutionContext parent;
  std::atomic<bool> stop{false};
  const ExecutionContext view = parent.worker_view(&stop);
  EXPECT_NO_THROW(view.check_deadline());
  stop.store(true);
  EXPECT_THROW(view.check_deadline(), DeadlineExceeded);
  EXPECT_NO_THROW(parent.check_deadline());  // the flag stops workers only
  stop.store(false);
  EXPECT_NO_THROW(view.check_deadline());
}

TEST(ExecutionContext, NodeBudgetIsEnforcedAndInertAtZero) {
  ExecutionContext ctx;
  EXPECT_EQ(ctx.max_nodes(), 0u);
  EXPECT_NO_THROW(ctx.check_node_budget(1'000'000));  // 0 = unlimited
  ctx.set_max_nodes(100);
  EXPECT_NO_THROW(ctx.check_node_budget(99));
  EXPECT_THROW(ctx.check_node_budget(100), ResourceExhausted);
  try {
    ctx.check_node_budget(250);
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kNodes);
    EXPECT_NE(std::string(e.what()).find("--max-nodes"), std::string::npos);
  }
  // Worker views inherit the budget.
  const ExecutionContext view = ctx.worker_view();
  EXPECT_THROW(view.check_node_budget(100), ResourceExhausted);
}

TEST(ExecutionContext, JoinWorkerSumsCountersAndMaxesPeak) {
  ExecutionContext parent;
  parent.stats().kraus_applications = 3;
  parent.stats().unique_hits = 10;
  parent.record_peak(50);

  ExecutionContext worker = parent.worker_view();
  worker.stats().kraus_applications = 2;
  worker.stats().unique_hits = 5;
  worker.stats().add_misses = 7;
  worker.stats().gc_runs = 1;
  worker.add_seconds(0.25);
  worker.record_peak(80);

  parent.join_worker(worker);
  EXPECT_EQ(parent.stats().kraus_applications, 5u);
  EXPECT_EQ(parent.stats().unique_hits, 15u);
  EXPECT_EQ(parent.stats().add_misses, 7u);
  EXPECT_EQ(parent.stats().gc_runs, 1u);
  EXPECT_DOUBLE_EQ(parent.stats().seconds, 0.25);
  EXPECT_EQ(parent.stats().peak_nodes, 80u);  // max, not sum

  // join_worker is a pure stats merge: any context may be folded in, and
  // the parent keeps no count of its views.
  ExecutionContext small;
  small.record_peak(4);
  parent.join_worker(small);
  EXPECT_EQ(parent.stats().peak_nodes, 80u);
  EXPECT_EQ(parent.stats().kraus_applications, 5u);
}

TEST(DeadlinePropagation, SurfacesFromContractNetwork) {
  // An already-expired deadline must abort a deep contraction via the
  // context alone — no per-call Deadline threading.
  tdd::Manager mgr;
  const auto net = tn::build_network(mgr, circ::make_qft(10));
  ExecutionContext ctx;
  ctx.set_deadline(Deadline::after(1e-12));
  EXPECT_THROW((void)tn::contract_network(mgr, net.tensors, net.external_indices(), &ctx),
               DeadlineExceeded);
}

TEST(DeadlinePropagation, SurfacesFromBoundManagerInsideOneContraction) {
  // Even a SINGLE Manager::contract call (one merge step as seen by
  // contract_network) polls the bound context's deadline from inside the
  // recursion, so a monster merge cannot overshoot the budget unchecked.
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  // A wide random-ish pair of tensors: QFT operator contracted against
  // itself produces enough cache misses to pass the tick threshold.
  const auto net = tn::build_network(mgr, circ::make_qft(11));
  const auto op = tn::contract_network(mgr, net.tensors, net.external_indices(), nullptr);
  ctx.set_deadline(Deadline::after(1e-12));
  bool threw = false;
  try {
    std::vector<tdd::Level> gamma;  // pure pointwise product, no summation
    (void)mgr.contract(op.edge, mgr.conjugate(op.edge), gamma);
  } catch (const DeadlineExceeded&) {
    threw = true;
  }
  // The tick fires every ~16k cache misses; a merge smaller than that may
  // legitimately complete.  Either way the manager must stay usable.
  EXPECT_NO_THROW((void)mgr.add(op.edge, op.edge));
  (void)threw;
}

TEST(DeadlinePropagation, SurfacesFromImageEngines) {
  for (const char* spec : {"basic", "addition:1", "contraction:2,2", "parallel:2"}) {
    tdd::Manager mgr;
    const auto sys = make_qft_system(mgr, 6);
    const auto engine = make_engine(mgr, spec);
    engine->set_deadline(Deadline::after(1e-12));
    EXPECT_THROW((void)engine->image(sys, sys.initial), DeadlineExceeded) << spec;
  }
}

TEST(DeadlinePropagation, SurfacesFromReachability) {
  tdd::Manager mgr;
  const auto sys = make_qrw_system(mgr, 4, 0.25, true, 0);
  const auto engine = make_engine(mgr, "contraction:2,2");
  engine->set_deadline(Deadline::after(1e-12));
  EXPECT_THROW((void)reachable_space(*engine, sys, 64), DeadlineExceeded);
}

TEST(DeadlinePropagation, SurfacesFromApplyCircuitTdd) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  ctx.set_deadline(Deadline::after(1e-12));
  EXPECT_THROW((void)apply_circuit_tdd(mgr, circ::make_qft(10), ket_basis(mgr, 10, 0), &ctx),
               DeadlineExceeded);
}

TEST(SharedContext, AggregatesAcrossManagerAndEngine) {
  // One spine, three reporters: the manager's caches, the contractor's peak
  // tracking and the engine's Kraus counting all land in the same stats.
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const auto sys = make_qft_system(mgr, 5);
  const auto engine = make_engine(mgr, "basic", &ctx);
  (void)engine->image(sys, sys.initial);
  const RunStats& s = ctx.stats();
  EXPECT_GT(s.peak_nodes, 0u);
  EXPECT_GT(s.kraus_applications, 0u);
  EXPECT_GT(s.unique_misses, 0u);
  EXPECT_GT(s.cont_misses, 0u);
  EXPECT_GT(s.seconds, 0.0);
}

TEST(GcPolicy, ContextThresholdBoundsTheLoop) {
  // GC-every-iteration reachability must agree with the unbounded run and
  // actually trigger collections.
  ExecutionContext plain_ctx;
  tdd::Manager mgr;
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const auto plain = reachable_space(*make_engine(mgr, "contraction:2,2", &plain_ctx), sys, 40);

  ExecutionContext gc_ctx;
  gc_ctx.set_adaptive_gc(true, 1, 1.0);
  tdd::Manager mgr2;
  mgr2.bind_context(&gc_ctx);
  const auto sys2 = make_qrw_system(mgr2, 3, 0.3, true, 0);
  const auto gced = reachable_space(*make_engine(mgr2, "contraction:2,2", &gc_ctx), sys2, 40);

  EXPECT_TRUE(gced.converged);
  EXPECT_EQ(gced.space.dim(), plain.space.dim());
  EXPECT_EQ(gced.iterations, plain.iterations);
  EXPECT_GT(gc_ctx.stats().gc_runs, 0u);
  EXPECT_EQ(plain_ctx.stats().gc_runs, 0u);
}

}  // namespace
}  // namespace qts
