/// \file order_test.cpp
/// The contraction-order planner (tn/order.hpp): plan well-formedness and
/// compiled sum-out sets, determinism across runs and managers,
/// step-identity of the incremental greedy planner against the reference
/// O(n^3) scan, deadline polling, the greedy plan behind the basic and
/// addition engines' pre-contraction, and — the load-bearing property —
/// bit-identical model-checking results across engines whose contraction
/// orders differ, on the full workload corpus.  Reduced TDDs are
/// canonical, so the final projector must not depend on the merge order.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "qts/backward.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"
#include "tn/order.hpp"
#include "tn/partition.hpp"

namespace qts::tn {
namespace {

using tdd::Level;

constexpr OrderPolicy kPolicies[] = {OrderPolicy::kCaller, OrderPolicy::kGreedy};

// ---------------------------------------------------------------------------
// Plan well-formedness

/// Every slot 0..n-1 plus each step result must be consumed exactly once,
/// with one live slot (the last step's result) remaining.
void expect_valid_ssa(const ContractionPlan& plan) {
  const std::size_t n = plan.num_tensors;
  if (n < 2) {
    EXPECT_TRUE(plan.steps.empty());
    return;
  }
  ASSERT_EQ(plan.steps.size(), n - 1);
  std::vector<int> consumed(n + plan.steps.size(), 0);
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& s = plan.steps[i];
    ASSERT_LT(s.lhs, n + i);  // only already-defined slots
    ASSERT_LT(s.rhs, n + i);
    EXPECT_NE(s.lhs, s.rhs);
    EXPECT_TRUE(std::is_sorted(s.sum.begin(), s.sum.end()));
    consumed[s.lhs] += 1;
    consumed[s.rhs] += 1;
  }
  for (std::size_t slot = 0; slot + 1 < consumed.size(); ++slot) {
    EXPECT_EQ(consumed[slot], 1) << "slot " << slot;
  }
  EXPECT_EQ(consumed.back(), 0);  // the final result
}

TEST(OrderPlan, AllPoliciesProduceValidSsaPlans) {
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_qft(5));
  const auto keep = net.external_indices();
  for (const auto p : kPolicies) {
    const ContractionPlan plan = plan_order(net.tensors, keep, p);
    EXPECT_EQ(plan.num_tensors, net.tensors.size());
    expect_valid_ssa(plan);
    EXPECT_TRUE(plan.tail.empty());  // a multi-tensor network sums everything in its steps
    EXPECT_GT(plan.estimated_cost, 0.0);
    EXPECT_GT(plan.max_width, 0u);
  }
}

TEST(OrderPlan, CallerPlanIsTheLeftFold) {
  std::vector<std::vector<Level>> idx{{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  const auto plan = plan_order_indices(idx, {0, 4}, OrderPolicy::kCaller);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].lhs, 0u);
  EXPECT_EQ(plan.steps[0].rhs, 1u);
  EXPECT_EQ(plan.steps[1].lhs, 4u);  // result of step 0
  EXPECT_EQ(plan.steps[1].rhs, 2u);
  EXPECT_EQ(plan.steps[2].lhs, 5u);
  EXPECT_EQ(plan.steps[2].rhs, 3u);
  // Each merge sums exactly the bond it closes; the kept ends survive.
  EXPECT_EQ(plan.steps[0].sum, std::vector<Level>{1});
  EXPECT_EQ(plan.steps[1].sum, std::vector<Level>{2});
  EXPECT_EQ(plan.steps[2].sum, std::vector<Level>{3});
  EXPECT_TRUE(plan.tail.empty());
  EXPECT_EQ(plan.max_width, 2u);
}

TEST(OrderPlan, PrivateIndicesAreSummedAtTheirOnlyMerge) {
  // Level 7 belongs to tensor 0 alone and is not kept: the first merge
  // that retires tensor 0 sums it; a lone tensor sums it in the tail.
  const auto plan = plan_order_indices({{0, 7}, {0, 1}}, {1}, OrderPolicy::kCaller);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].sum, (std::vector<Level>{0, 7}));
  EXPECT_TRUE(plan.tail.empty());
  for (const auto p : kPolicies) {
    const auto one = plan_order_indices({{0, 5, 7}}, {5}, p);
    EXPECT_TRUE(one.steps.empty());
    EXPECT_EQ(one.tail, (std::vector<Level>{0, 7}));
  }
}

TEST(OrderPlan, TrivialNetworks) {
  for (const auto p : kPolicies) {
    const auto one = plan_order_indices({{0, 1}}, {0, 1}, p);
    EXPECT_EQ(one.num_tensors, 1u);
    EXPECT_TRUE(one.steps.empty());
    EXPECT_TRUE(one.tail.empty());
    const auto two = plan_order_indices({{0, 1}, {1, 2}}, {0, 2}, p);
    ASSERT_EQ(two.steps.size(), 1u);
    EXPECT_EQ(two.steps[0].lhs, 0u);
    EXPECT_EQ(two.steps[0].rhs, 1u);
  }
}

// ---------------------------------------------------------------------------
// Determinism

TEST(OrderPlan, DeterministicAcrossRunsAndManagers) {
  const auto plans_for = [](tdd::Manager& mgr, OrderPolicy p) {
    const auto net = build_network(mgr, circ::make_grover_iteration(4));
    return plan_order(net.tensors, net.external_indices(), p);
  };
  tdd::Manager a;
  tdd::Manager b;
  for (const auto p : kPolicies) {
    const auto p1 = plans_for(a, p);
    const auto p2 = plans_for(a, p);  // same manager, repeated
    const auto p3 = plans_for(b, p);  // fresh manager, different node addresses
    ASSERT_EQ(p1.steps.size(), p2.steps.size());
    ASSERT_EQ(p1.steps.size(), p3.steps.size());
    for (std::size_t i = 0; i < p1.steps.size(); ++i) {
      EXPECT_EQ(p1.steps[i].lhs, p2.steps[i].lhs);
      EXPECT_EQ(p1.steps[i].rhs, p2.steps[i].rhs);
      EXPECT_EQ(p1.steps[i].lhs, p3.steps[i].lhs);
      EXPECT_EQ(p1.steps[i].rhs, p3.steps[i].rhs);
      EXPECT_EQ(p1.steps[i].sum, p3.steps[i].sum);
    }
    EXPECT_EQ(p1.max_width, p3.max_width);
    EXPECT_EQ(p1.estimated_cost, p3.estimated_cost);
  }
}

// ---------------------------------------------------------------------------
// Incremental greedy against the reference O(n^3) scan

/// The textbook greedy scan the incremental planner replaces, kept as an
/// independent reference: every merge rescans all live pairs in position
/// order and keeps the first pair minimising (width, disconnected?); the
/// merged slot takes the lower position.  Levels are remapped to dense ids
/// and slots are sorted vectors, so the scan shares no code with the
/// planner.  Returns the merge steps in SSA slot numbering.
std::vector<std::pair<std::size_t, std::size_t>> reference_greedy(
    const std::vector<std::vector<Level>>& idx, const std::vector<Level>& keep) {
  std::vector<Level> levels;
  for (const auto& t : idx) levels.insert(levels.end(), t.begin(), t.end());
  levels.insert(levels.end(), keep.begin(), keep.end());
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  const auto dense = [&](Level l) {
    return static_cast<std::size_t>(std::lower_bound(levels.begin(), levels.end(), l) -
                                    levels.begin());
  };

  struct Slot {
    std::size_t id;
    std::vector<std::size_t> members;  // sorted dense levels
  };
  std::vector<std::size_t> uses(levels.size(), 0);
  std::vector<Slot> live;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    Slot s{i, {}};
    for (const Level l : idx[i]) s.members.push_back(dense(l));
    std::sort(s.members.begin(), s.members.end());
    for (const std::size_t l : s.members) uses[l] += 1;
    live.push_back(std::move(s));
  }
  for (const Level l : keep) uses[dense(l)] += 1;

  // (surviving levels, shared?) of merging a and b under the current uses.
  const auto survivors = [&uses](const Slot& a, const Slot& b, bool* shared) {
    std::vector<std::size_t> both;
    std::set_union(a.members.begin(), a.members.end(), b.members.begin(), b.members.end(),
                   std::back_inserter(both));
    *shared = both.size() < a.members.size() + b.members.size();
    std::vector<std::size_t> out;
    for (const std::size_t l : both) {
      const std::size_t operands =
          (std::binary_search(a.members.begin(), a.members.end(), l) ? 1u : 0u) +
          (std::binary_search(b.members.begin(), b.members.end(), l) ? 1u : 0u);
      if (uses[l] > operands) out.push_back(l);
    }
    return out;
  };

  std::vector<std::pair<std::size_t, std::size_t>> steps;
  std::size_t next_id = idx.size();
  while (live.size() > 1) {
    std::size_t best_a = 0;
    std::size_t best_b = 1;
    std::size_t best_width = std::numeric_limits<std::size_t>::max();
    bool best_connected = false;
    for (std::size_t a = 0; a < live.size(); ++a) {
      for (std::size_t b = a + 1; b < live.size(); ++b) {
        bool connected = false;
        const std::size_t width = survivors(live[a], live[b], &connected).size();
        if (width < best_width || (width == best_width && connected && !best_connected)) {
          best_a = a;
          best_b = b;
          best_width = width;
          best_connected = connected;
        }
      }
    }
    steps.emplace_back(live[best_a].id, live[best_b].id);
    bool ignored = false;
    Slot merged{next_id++, survivors(live[best_a], live[best_b], &ignored)};
    for (const Slot* s : {&live[best_a], &live[best_b]}) {
      for (const std::size_t l : s->members) uses[l] -= 1;
    }
    for (const std::size_t l : merged.members) uses[l] += 1;
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(best_b));
    live[best_a] = std::move(merged);
  }
  return steps;
}

void expect_matches_reference(const std::vector<std::vector<Level>>& idx,
                              const std::vector<Level>& keep) {
  const auto plan = plan_order_indices(idx, keep, OrderPolicy::kGreedy);
  const auto ref = reference_greedy(idx, keep);
  ASSERT_EQ(plan.steps.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(plan.steps[i].lhs, ref[i].first) << "step " << i;
    ASSERT_EQ(plan.steps[i].rhs, ref[i].second) << "step " << i;
  }
}

TEST(OrderGreedy, StepIdenticalToTheReferenceScanOnRandomNetworks) {
  std::mt19937 rng(20240611);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t tensors = 1 + rng() % 24;
    const Level num_levels = 1 + static_cast<Level>(rng() % 30);
    std::vector<std::vector<Level>> idx(tensors);
    for (auto& t : idx) {
      const std::size_t arity = rng() % 5;  // index-less scalars included
      for (std::size_t k = 0; k < arity; ++k) t.push_back(static_cast<Level>(rng() % num_levels));
      std::sort(t.begin(), t.end());
      t.erase(std::unique(t.begin(), t.end()), t.end());
    }
    std::vector<Level> keep;
    for (Level l = 0; l < num_levels; ++l) {
      if (rng() % 4 == 0) keep.push_back(l);
    }
    expect_matches_reference(idx, keep);
  }
}

TEST(OrderGreedy, StepIdenticalToTheReferenceScanOnMonolithicCircuits) {
  const std::vector<std::pair<std::string, std::function<TransitionSystem(tdd::Manager&)>>>
      circuits{
          {"QFT15", [](tdd::Manager& m) { return make_qft_system(m, 15); }},
          {"GroverD15", [](tdd::Manager& m) { return make_grover_decomposed_system(m, 15); }},
          {"BV100", [](tdd::Manager& m) { return make_bv_system(m, 100); }},
          {"GHZ100", [](tdd::Manager& m) { return make_ghz_system(m, 100); }},
      };
  for (const auto& [name, make] : circuits) {
    SCOPED_TRACE(name);
    tdd::Manager mgr;
    const TransitionSystem sys = make(mgr);
    const auto net = build_network(mgr, sys.operations.at(0).kraus.at(0));
    std::vector<std::vector<Level>> idx;
    for (const auto& t : net.tensors) idx.push_back(t.indices);
    expect_matches_reference(idx, net.external_indices());
  }
}

TEST(OrderGreedy, PollsTheDeadlineWhilePlanning) {
  tdd::Manager mgr;
  const TransitionSystem sys = make_bv_system(mgr, 200);
  const auto net = build_network(mgr, sys.operations.at(0).kraus.at(0));
  ASSERT_GE(net.tensors.size(), 200u);
  ExecutionContext expired;
  expired.set_deadline(Deadline::after(1e-12));
  EXPECT_THROW((void)plan_order(net.tensors, net.external_indices(), OrderPolicy::kGreedy,
                                &expired),
               DeadlineExceeded);
}

TEST(OrderGreedy, BeatsCallerWhereTheFoldIsBad) {
  // The two tensors sharing the wide bus come LAST, so the left fold drags
  // every bus index through each merge (the situation greedy exists for).
  const std::vector<std::vector<Level>> idx{
      {0, 10, 11, 12, 13}, {1, 2}, {2, 3}, {1, 10, 11, 12, 13}};
  const auto caller = plan_order_indices(idx, {0, 3}, OrderPolicy::kCaller);
  const auto greedy = plan_order_indices(idx, {0, 3}, OrderPolicy::kGreedy);
  EXPECT_LT(greedy.estimated_cost, caller.estimated_cost);
  EXPECT_LT(greedy.max_width, caller.max_width);
}

// ---------------------------------------------------------------------------
// Planner gauges

TEST(OrderPlan, RecordsGaugesOnTheContext) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_qft(4));
  (void)plan_order(net.tensors, net.external_indices(), OrderPolicy::kGreedy, &ctx);
  EXPECT_EQ(ctx.stats().plans_computed, 1u);
  EXPECT_GT(ctx.stats().plan_max_width, 0u);
  EXPECT_GE(ctx.stats().plan_seconds, 0.0);

  // Fork/join merge: counts sum, the width gauge max-merges.
  ExecutionContext parent;
  ExecutionContext w1 = parent.worker_view();
  ExecutionContext w2 = parent.worker_view();
  w1.stats().plans_computed = 2;
  w1.stats().plan_max_width = 7;
  w1.stats().plan_seconds = 0.25;
  w2.stats().plans_computed = 3;
  w2.stats().plan_max_width = 5;
  w2.stats().plan_seconds = 0.5;
  parent.join_worker(w1);
  parent.join_worker(w2);
  EXPECT_EQ(parent.stats().plans_computed, 5u);
  EXPECT_EQ(parent.stats().plan_max_width, 7u);
  EXPECT_DOUBLE_EQ(parent.stats().plan_seconds, 0.75);
}

// ---------------------------------------------------------------------------
// Contraction equivalence: the final tensor is bit-identical per policy

TEST(OrderContract, SameTensorUnderEveryPolicyAndPlanReplay) {
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_grover_iteration(4));
  const auto keep = net.external_indices();
  const Tensor caller = contract_network(mgr, net.tensors, keep, nullptr, OrderPolicy::kCaller);
  const Tensor greedy = contract_network(mgr, net.tensors, keep, nullptr, OrderPolicy::kGreedy);
  // Same manager + canonical reduced TDDs: the STRUCTURE (node) is
  // identical under every order.  The top weight is a product of the merge
  // scalars, so it may differ in the last ulp — float contraction is not
  // associative — hence approx on the weight, exact on the node.
  EXPECT_EQ(caller.edge.node, greedy.edge.node);
  EXPECT_TRUE(approx_equal(caller.edge.weight, greedy.edge.weight));
  EXPECT_EQ(greedy.indices, caller.indices);

  // A precomputed plan replays to the same result.
  const auto plan = plan_order(net.tensors, keep, OrderPolicy::kGreedy);
  const Tensor replay = contract_network(mgr, net.tensors, keep, nullptr, plan);
  EXPECT_EQ(replay.edge.node, greedy.edge.node);
  EXPECT_EQ(replay.edge.weight, greedy.edge.weight);  // same order: bit-equal
}

TEST(OrderContract, MismatchedPlanIsRejected) {
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_ghz(3));
  const auto keep = net.external_indices();
  ContractionPlan plan = plan_order(net.tensors, keep, OrderPolicy::kGreedy);
  plan.num_tensors += 1;
  EXPECT_THROW((void)contract_network(mgr, net.tensors, keep, nullptr, plan), Error);
}

// ---------------------------------------------------------------------------
// The engines' fixed orders

/// Prepare `sys`'s first Kraus circuit under `spec` in a fresh manager and
/// return the planner width and peak #node that preparation recorded.
std::pair<std::size_t, std::size_t> prepare_gauges(const std::string& spec,
                                                   TransitionSystem (*make)(tdd::Manager&)) {
  ExecutionContext ctx;
  tdd::Manager mgr;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make(mgr);
  const auto computer = make_engine(mgr, spec, &ctx);
  (void)computer->apply_kraus(sys.operations.at(0).kraus.at(0), sys.initial.basis().at(0));
  return {ctx.stats().plan_max_width, ctx.stats().peak_nodes};
}

/// The same gauges for contracting each of `networks` (which share their
/// index sets, like the slices of an addition partition) under one plan.
std::pair<std::size_t, std::size_t> plan_gauges(tdd::Manager& mgr,
                                                const std::vector<std::vector<Tensor>>& networks,
                                                const std::vector<Level>& keep,
                                                OrderPolicy policy) {
  ExecutionContext ctx;
  const ContractionPlan plan = plan_order(networks.front(), keep, policy);
  for (const auto& tensors : networks) (void)contract_network(mgr, tensors, keep, &ctx, plan);
  return {plan.max_width, ctx.stats().peak_nodes};
}

TEST(OrderGreedy, BasicAndAdditionPrepareWithTheGreedyPlan) {
  // Nothing configures the pre-contraction order: basic and addition always
  // plan their monolithic networks greedily.  On grover7 both orders reach
  // the operator's full width, but their intermediate peaks differ, so the
  // recorded gauges tell them apart.
  const auto make = [](tdd::Manager& m) { return make_grover_system(m, 7); };
  tdd::Manager mgr;
  const TransitionSystem sys = make(mgr);
  const auto net = build_network(mgr, sys.operations.at(0).kraus.at(0));
  const auto keep = net.external_indices();

  const auto greedy = plan_gauges(mgr, {net.tensors}, keep, OrderPolicy::kGreedy);
  const auto caller = plan_gauges(mgr, {net.tensors}, keep, OrderPolicy::kCaller);
  ASSERT_NE(greedy.second, caller.second);
  EXPECT_EQ(prepare_gauges("basic", make), greedy);

  std::vector<std::vector<Tensor>> slices;
  for (auto& slice : addition_partition(mgr, net, 1).slices) slices.push_back(slice.tensors);
  const auto greedy_slices = plan_gauges(mgr, slices, keep, OrderPolicy::kGreedy);
  const auto caller_slices = plan_gauges(mgr, slices, keep, OrderPolicy::kCaller);
  ASSERT_NE(greedy_slices.second, caller_slices.second);
  EXPECT_EQ(prepare_gauges("addition:1", make), greedy_slices);
}

// ---------------------------------------------------------------------------
// End-to-end differential oracle: reach/invar/back on the workload corpus,
// engines with greedy pre-contraction (basic, addition) against engines
// that fold the ket through blocks in circuit order (contraction)

struct EngineRun {
  std::size_t dim = 0;
  const tdd::Node* node = nullptr;
  cplx weight{0.0, 0.0};
  bool holds = false;
};

/// Run one model-checking command under `engine` in `mgr` and return the
/// final projector identity (node pointer comparison is only meaningful
/// within one manager, so callers compare runs made in the SAME manager).
EngineRun run_engine(tdd::Manager& mgr, const TransitionSystem& sys, const std::string& engine,
                     const std::string& command, std::size_t steps) {
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  const auto computer = make_engine(mgr, engine, &ctx);
  EngineRun out;
  if (command == "reach") {
    const auto r = reachable_space(*computer, sys, steps);
    out.dim = r.space.dim();
    out.node = r.space.projector().node;
    out.weight = r.space.projector().weight;
  } else if (command == "back") {
    const auto r = backward_reachable(*computer, sys, sys.initial, steps);
    out.dim = r.space.dim();
    out.node = r.space.projector().node;
    out.weight = r.space.projector().weight;
  } else {
    const auto r = check_invariant(*computer, sys, sys.initial, steps);
    out.holds = r.holds;
    out.dim = r.iterations;
  }
  return out;
}

/// Run `command` under `greedy` (a basic or addition spec) and `caller` (a
/// contraction spec) in one manager and require the same result.
void expect_engines_agree(const std::function<TransitionSystem(tdd::Manager&)>& make,
                          const std::string& greedy, const std::string& caller,
                          const std::string& command, std::size_t steps) {
  // One manager for both engines: reduced TDDs are canonical there, so
  // "bit-identical projector" is literal node identity.
  tdd::Manager mgr;
  const TransitionSystem sys = make(mgr);
  const EngineRun g = run_engine(mgr, sys, greedy, command, steps);
  const EngineRun c = run_engine(mgr, sys, caller, command, steps);
  const std::string trace = greedy + " vs " + caller + " " + command;
  EXPECT_EQ(g.dim, c.dim) << trace;
  EXPECT_EQ(g.node, c.node) << trace;
  EXPECT_EQ(g.weight, c.weight) << trace;
  EXPECT_EQ(g.holds, c.holds) << trace;
}

TransitionSystem load_example_system(tdd::Manager& mgr, const std::string& file) {
  std::ifstream in(std::string(QTS_EXAMPLES_DIR) + "/" + file);
  std::ostringstream text;
  text << in.rdbuf();
  const circ::Circuit c = circ::from_qasm(text.str());
  const std::uint32_t n = c.num_qubits();
  return TransitionSystem{n, Subspace::from_states(mgr, n, {ket_basis(mgr, n, 0)}),
                          {QuantumOperation{"step", {c}}}};
}

TEST(OrderDifferential, ReachBitIdenticalOnAllWorkloads) {
  const std::vector<std::pair<std::string, std::function<TransitionSystem(tdd::Manager&)>>>
      workloads{
          {"ghz6", [](tdd::Manager& m) { return make_ghz_system(m, 6); }},
          {"bv8", [](tdd::Manager& m) { return make_bv_system(m, 8); }},
          {"qft5", [](tdd::Manager& m) { return make_qft_system(m, 5); }},
          {"grover7", [](tdd::Manager& m) { return make_grover_system(m, 7); }},
          {"qrw6-noisy", [](tdd::Manager& m) { return make_qrw_system(m, 6, 0.1, true, 0); }},
          {"bitflip", [](tdd::Manager& m) { return make_bitflip_code_system(m); }},
      };
  for (const auto& [name, make] : workloads) {
    SCOPED_TRACE(name);
    // basic exercises the monolithic pre-contraction plan, contraction the
    // blocks + ket push plan — the two genuinely multi-tensor paths.
    expect_engines_agree(make, "basic", "contraction:4,4", "reach", 16);
    expect_engines_agree(make, "basic", "contraction:2,2", "reach", 16);
  }
}

TEST(OrderDifferential, AdditionEngineAgreesToo) {
  expect_engines_agree([](tdd::Manager& m) { return make_qft_system(m, 5); }, "addition:1",
                       "contraction:4,4", "reach", 16);
  expect_engines_agree([](tdd::Manager& m) { return make_bitflip_code_system(m); },
                       "addition:2", "contraction:2,2", "reach", 16);
}

TEST(OrderDifferential, InvarAndBackBitIdentical) {
  const auto qrw = [](tdd::Manager& m) { return make_qrw_system(m, 6, 0.1, true, 0); };
  const auto bitflip = [](tdd::Manager& m) { return make_bitflip_code_system(m); };
  for (const auto* command : {"invar", "back"}) {
    SCOPED_TRACE(command);
    expect_engines_agree(qrw, "addition:1", "contraction:4,4", command, 12);
    expect_engines_agree(bitflip, "basic", "contraction:2,2", command, 12);
  }
}

TEST(OrderDifferential, ExampleQasmBitIdentical) {
  for (const auto* file : {"ghz16.qasm", "ghz.qasm"}) {
    SCOPED_TRACE(file);
    const auto make = [file](tdd::Manager& m) { return load_example_system(m, file); };
    // The 16-qubit GHZ converges only after thousands of iterations; the
    // small cap keeps this a real multi-iteration differential run.
    expect_engines_agree(make, "basic", "contraction:4,4", "reach", 6);
    expect_engines_agree(make, "basic", "contraction:4,4", "invar", 4);
    expect_engines_agree(make, "addition:1", "contraction:2,2", "back", 4);
  }
}

}  // namespace
}  // namespace qts::tn
