/// Tests for the TDD structural auditor (tdd/audit.hpp): clean verdicts on
/// every shipped workload under the sequential, parallel and fallback
/// engines (including after GC and after a fault-injection recovery), the
/// set_audit_every driver hook, and one deliberate-corruption test per
/// invariant class proving the matching check actually fires.  The
/// AuditConcurrent suite runs under ThreadSanitizer in CI (gtest_filter
/// 'Audit*').
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/qasm.hpp"
#include "common/execution_context.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"
#include "tdd/audit.hpp"
#include "tdd/dense.hpp"
#include "tdd/manager.hpp"
#include "test_helpers.hpp"

namespace qts {
namespace {

using tdd::AuditCheck;
using tdd::AuditReport;
using tdd::Edge;

/// The roots a real caller would keep using — the same set qtsmc --audit
/// assembles: the engine's prepared operators, the initial subspace and the
/// result subspace.
std::vector<Edge> audit_roots(const ImageComputer& engine, const TransitionSystem& sys,
                              const Subspace& result) {
  std::vector<Edge> roots = engine.prepared_roots();
  const auto keep = [&roots](const Subspace& s) {
    roots.push_back(s.projector());
    roots.insert(roots.end(), s.basis().begin(), s.basis().end());
  };
  keep(sys.initial);
  keep(result);
  return roots;
}

void expect_clean(tdd::Manager& mgr, std::span<const Edge> roots, const std::string& label) {
  AuditReport report;
  EXPECT_TRUE(tdd::audit(mgr, report, roots)) << label << ": " << report.summary();
  EXPECT_TRUE(report.clean()) << label;
  EXPECT_GT(report.interned_nodes, 0u) << label;
  EXPECT_GT(report.reachable_nodes, 0u) << label;
  EXPECT_LE(report.reachable_nodes, report.live_nodes) << label;
}

bool has_check(const AuditReport& report, AuditCheck check) {
  for (const auto& f : report.failures) {
    if (f.check == check) return true;
  }
  return false;
}

/// The shipped workload family, by name.
const std::vector<std::pair<std::string, std::function<TransitionSystem(tdd::Manager&)>>>&
workloads() {
  static const std::vector<std::pair<std::string, std::function<TransitionSystem(tdd::Manager&)>>>
      systems{
          {"ghz", [](tdd::Manager& m) { return make_ghz_system(m, 4); }},
          {"bv", [](tdd::Manager& m) { return make_bv_system(m, 4); }},
          {"qft", [](tdd::Manager& m) { return make_qft_system(m, 3); }},
          {"grover", [](tdd::Manager& m) { return make_grover_system(m, 3); }},
          {"grover_decomposed", [](tdd::Manager& m) { return make_grover_decomposed_system(m, 5); }},
          {"qrw", [](tdd::Manager& m) { return make_qrw_system(m, 3); }},
          {"bitflip_code", [](tdd::Manager& m) { return make_bitflip_code_system(m); }},
      };
  return systems;
}

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

// ---------------------------------------------------------------------------
// Clean audits on real runs

TEST(Audit, CleanOnEveryWorkloadUnderEachEngine) {
  for (const char* spec : {"basic", "parallel:4", "fallback:contraction:2,2;basic"}) {
    for (const auto& [name, make_system] : workloads()) {
      ExecutionContext ctx;
      tdd::Manager mgr;
      mgr.bind_context(&ctx);
      const TransitionSystem sys = make_system(mgr);
      const auto engine = make_engine(mgr, spec, &ctx);
      const auto r = reachable_space(*engine, sys, 16);
      EXPECT_TRUE(r.converged) << name << " / " << spec;
      expect_clean(mgr, audit_roots(*engine, sys, r.space), name + " / " + spec);
    }
  }
}

TEST(Audit, CleanOnTheExampleQasmFiles) {
  for (const char* file : {"ghz.qasm", "phase_oracle.qasm"}) {
    for (const char* spec : {"basic", "parallel:4"}) {
      ExecutionContext ctx;
      tdd::Manager mgr;
      mgr.bind_context(&ctx);
      const TransitionSystem sys = system_from_qasm(mgr, file);
      const auto engine = make_engine(mgr, spec, &ctx);
      const auto r = reachable_space(*engine, sys, 64);
      expect_clean(mgr, audit_roots(*engine, sys, r.space),
                   std::string(file) + " / " + spec);
    }
  }
}

TEST(Audit, CleanAfterGarbageCollection) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "basic", &ctx);
  const auto r = reachable_space(*engine, sys, 16);
  const std::vector<Edge> roots = audit_roots(*engine, sys, r.space);

  const std::size_t live_before = mgr.live_nodes();
  (void)mgr.gc(roots);
  EXPECT_LE(mgr.live_nodes(), live_before);
  // The collector rebuilt the table from survivors; residency, placement and
  // free-list bookkeeping must all still hold.
  expect_clean(mgr, roots, "post-gc");
}

TEST(Audit, CleanAfterFaultInjectionRecovery) {
  // A fallback chain forced through a mid-run degradation leaves the manager
  // with the dead first-engine intermediates recycled; the structure must
  // still audit clean afterwards.
  ExecutionContext ctx;
  ctx.set_fault_plan(FaultPlan::parse("nodes@iter2"));
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "fallback:contraction:2,2;basic", &ctx);
  const auto r = reachable_space(*engine, sys, 16);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(ctx.stats().degradations, 1u);
  expect_clean(mgr, audit_roots(*engine, sys, r.space), "post-recovery");
}

TEST(Audit, SetAuditEveryAuditsInsideTheFixpoint) {
  ExecutionContext ctx;
  ctx.set_audit_every(1);  // every iteration
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "basic", &ctx);
  const auto r = reachable_space(*engine, sys, 16);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(ctx.stats().audits_run, r.iterations);
  EXPECT_GT(ctx.stats().audited_nodes, 0u);
}

TEST(Audit, SetAuditEverySkipsOffIterations) {
  ExecutionContext ctx;
  ctx.set_audit_every(1000);  // beyond the run length: no iteration audit
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_ghz_system(mgr, 4);
  const auto engine = make_engine(mgr, "basic", &ctx);
  (void)reachable_space(*engine, sys, 16);
  EXPECT_EQ(ctx.stats().audits_run, 0u);
}

// ---------------------------------------------------------------------------
// Deliberate corruption: each invariant class fires its own check

TEST(AuditCorruption, RedundantNodeFires) {
  tdd::Manager mgr;
  (void)make_ghz_system(mgr, 3);
  tdd::corrupt_plant_redundant_node(mgr);
  AuditReport report;
  EXPECT_FALSE(tdd::audit(mgr, report));
  EXPECT_TRUE(has_check(report, AuditCheck::kRedundantNode)) << report.summary();
}

TEST(AuditCorruption, DenormalisedWeightsFire) {
  tdd::Manager mgr;
  (void)make_ghz_system(mgr, 3);
  tdd::corrupt_plant_denormalised_node(mgr);
  AuditReport report;
  EXPECT_FALSE(tdd::audit(mgr, report));
  EXPECT_TRUE(has_check(report, AuditCheck::kWeightNorm)) << report.summary();
}

TEST(AuditCorruption, ShardMisplacementFires) {
  tdd::Manager mgr;
  (void)make_ghz_system(mgr, 3);
  ASSERT_TRUE(tdd::corrupt_misplace_shard_entry(mgr));
  AuditReport report;
  EXPECT_FALSE(tdd::audit(mgr, report));
  EXPECT_TRUE(has_check(report, AuditCheck::kShardPlacement)) << report.summary();
}

TEST(AuditCorruption, ShardMisplacementIntoAnUnallocatedShardFires) {
  // One interned node: exactly one shard has slots, so the hook's target
  // shard has never been allocated.
  tdd::Manager mgr;
  const Edge lit = mgr.literal(0, cplx{1.0, 0.0}, cplx{0.5, 0.0});
  ASSERT_NE(lit.node, nullptr);
  const std::size_t slots_before = mgr.storage_stats().table_slots;
  ASSERT_TRUE(tdd::corrupt_misplace_shard_entry(mgr));
  EXPECT_EQ(mgr.storage_stats().table_slots, 2 * slots_before);
  AuditReport report;
  EXPECT_FALSE(tdd::audit(mgr, report));
  EXPECT_TRUE(has_check(report, AuditCheck::kShardPlacement)) << report.summary();
  EXPECT_FALSE(has_check(report, AuditCheck::kHashConsistency)) << report.summary();
}

TEST(AuditCorruption, StoredHashDriftFiresHashConsistency) {
  tdd::Manager mgr;
  EXPECT_FALSE(tdd::corrupt_rehash_entry(mgr));  // empty table: nothing planted
  (void)make_ghz_system(mgr, 3);
  AuditReport clean;
  ASSERT_TRUE(tdd::audit(mgr, clean)) << clean.summary();
  ASSERT_TRUE(tdd::corrupt_rehash_entry(mgr));
  AuditReport report;
  EXPECT_FALSE(tdd::audit(mgr, report));
  EXPECT_TRUE(has_check(report, AuditCheck::kHashConsistency)) << report.summary();
  // The rewritten hash still selects the entry's own shard.
  EXPECT_FALSE(has_check(report, AuditCheck::kShardPlacement)) << report.summary();
  EXPECT_EQ(report.interned_nodes, clean.interned_nodes);
}

TEST(AuditCorruption, FreedReachableNodeFires) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const Edge root = sys.initial.projector();
  ASSERT_NE(root.node, nullptr);
  tdd::corrupt_free_reachable_node(mgr, root);
  AuditReport report;
  const std::vector<Edge> roots{root};
  EXPECT_FALSE(tdd::audit(mgr, report, roots));
  EXPECT_TRUE(has_check(report, AuditCheck::kFreedReachable)) << report.summary();
}

TEST(AuditCorruption, RootOfAnotherManagerFiresResidency) {
  // The two managers' node ids overlap, so the foreign root's walk stamps
  // ids of this arena's nodes; the root check still names it.
  tdd::Manager mgr;
  tdd::Manager other;
  const TransitionSystem sys = make_ghz_system(mgr, 3);
  const TransitionSystem foreign = make_ghz_system(other, 3);
  AuditReport report;
  const std::vector<Edge> own{sys.initial.projector()};
  ASSERT_TRUE(tdd::audit(mgr, report, own)) << report.summary();
  const std::vector<Edge> roots{sys.initial.projector(), foreign.initial.projector()};
  EXPECT_FALSE(tdd::audit(mgr, report, roots));
  EXPECT_TRUE(has_check(report, AuditCheck::kResidency)) << report.summary();
}

TEST(AuditCorruption, AuditOrThrowCarriesTheTypedReport) {
  tdd::Manager mgr;
  (void)make_ghz_system(mgr, 3);
  tdd::corrupt_plant_redundant_node(mgr);
  try {
    tdd::audit_or_throw(mgr);
    FAIL() << "corrupted manager did not throw";
  } catch (const tdd::AuditError& e) {
    EXPECT_FALSE(e.report().clean());
    EXPECT_TRUE(has_check(e.report(), AuditCheck::kRedundantNode));
    EXPECT_NE(std::string(e.what()).find("audit failed"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: a table built by racing interners must audit clean, and the
// audit's own locking (shard spinlocks, arena mutex, slot registry) is
// exercised under TSan via the CI 'Audit*' filter.

TEST(AuditConcurrent, TableBuiltByRacingInternersAuditsClean) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  const std::vector<tdd::Level> levels{0, 1, 2, 3};

  tdd::Manager mgr;
  std::vector<Edge> everything;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::vector<Edge>> built(kThreads);
    {
      std::vector<std::thread> pool;
      pool.reserve(kThreads);
      for (std::size_t t = 0; t < kThreads; ++t) {
        tdd::Manager::ThreadSlot& slot = mgr.create_slot();
        pool.emplace_back([&mgr, &slot, &levels, round, &out = built[t]] {
          const tdd::Manager::SlotGuard guard(slot);
          // Same seed per round across threads: maximal intern contention.
          Prng rng(41 * (round + 1));
          for (std::size_t i = 0; i < 48; ++i) {
            out.push_back(tdd::from_dense(mgr, test::random_dense(rng, 4), levels));
          }
        });
      }
      for (auto& th : pool) th.join();
    }
    for (const auto& edges : built) {
      everything.insert(everything.end(), edges.begin(), edges.end());
    }
    // Quiescent between rounds: every worker joined, so the audit contract
    // holds while the table still carries the race survivors and the
    // race-losers sit on the slot free lists.
    expect_clean(mgr, everything, "round " + std::to_string(round));
  }

  const tdd::Manager::StorageStats st = mgr.storage_stats();
  EXPECT_EQ(st.table_nodes, st.live_nodes);
}

}  // namespace
}  // namespace qts
