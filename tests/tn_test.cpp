#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "circuit/generators.hpp"
#include "common/prng.hpp"
#include "qts/engine.hpp"
#include "qts/simulate.hpp"
#include "qts/states.hpp"
#include "sim/circuit_matrix.hpp"
#include "test_helpers.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"
#include "tn/index_graph.hpp"
#include "tn/partition.hpp"

namespace qts::tn {
namespace {

using tdd::Level;

/// Contract a whole network into its monolithic operator TDD and compare it
/// to the dense circuit matrix.  Shared by several tests below.
void expect_network_matches_matrix(tdd::Manager& mgr, const circ::Circuit& c) {
  const auto net = build_network(mgr, c);
  ASSERT_FALSE(net.tensors.empty());
  const auto keep = net.external_indices();
  const Tensor mono = contract_network(mgr, net.tensors, keep);
  const auto m = sim::circuit_matrix(c);

  // Evaluate the mono tensor entry-by-entry: row bits live on the output
  // levels, column bits on the input levels (which may coincide).
  const std::uint32_t n = c.num_qubits();
  const std::size_t dim = std::size_t{1} << n;
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t col = 0; col < dim; ++col) {
      std::uint64_t assign = 0;
      bool consistent = true;
      for (std::size_t i = 0; i < keep.size(); ++i) {
        const std::uint32_t q = tdd::level_qubit(keep[i]);
        const bool is_input = keep[i] == net.inputs[q];
        const bool is_output = keep[i] == net.outputs[q];
        const std::size_t rbit = (r >> (n - 1 - q)) & 1u;
        const std::size_t cbit = (col >> (n - 1 - q)) & 1u;
        std::size_t bit = 0;
        if (is_input && is_output) {
          // Reused wire: the operator tensor is diagonal on this qubit.
          if (rbit != cbit) consistent = false;
          bit = cbit;
        } else if (is_input) {
          bit = cbit;
        } else {
          bit = rbit;
        }
        assign |= bit << (keep.size() - 1 - i);
      }
      if (!consistent) {
        // Reused-wire off-diagonal entries must vanish in the dense matrix.
        EXPECT_NEAR(std::abs(m(r, col)), 0.0, 1e-9);
        continue;
      }
      const cplx got = tdd::value_at(mono.edge, keep, assign) * net.factor;
      EXPECT_TRUE(approx_equal(got, m(r, col), 1e-8))
          << "entry (" << r << "," << col << ") of " << c.num_qubits() << "-qubit circuit";
    }
  }
}

TEST(GateTensor, HadamardMatchesDense) {
  tdd::Manager mgr;
  std::vector<std::uint64_t> pos(1, 0);
  const auto t = gate_tensor(mgr, circ::Gate("h", circ::h(), {0}), pos);
  EXPECT_EQ(pos[0], 1u);
  ASSERT_EQ(t.indices.size(), 2u);
  // indices: in = q0.t0, out = q0.t1; value(in, out) = H(out, in).
  const auto dense = tdd::to_dense(t.edge, t.indices);
  const double s = std::sqrt(0.5);
  test::expect_dense_eq(dense, {cplx{s, 0}, cplx{s, 0}, cplx{s, 0}, cplx{-s, 0}});
}

TEST(GateTensor, DiagonalGateReusesIndex) {
  tdd::Manager mgr;
  std::vector<std::uint64_t> pos(1, 0);
  const auto t = gate_tensor(mgr, circ::Gate("z", circ::z(), {0}), pos);
  EXPECT_EQ(pos[0], 0u);  // no new index
  ASSERT_EQ(t.indices.size(), 1u);
  test::expect_tdd_matches(t.edge, t.indices, {cplx{1, 0}, cplx{-1, 0}});
}

TEST(GateTensor, ControlWireReusesIndex) {
  tdd::Manager mgr;
  std::vector<std::uint64_t> pos(2, 0);
  const auto t = gate_tensor(mgr, circ::Gate("cx", circ::x(), {1}, {{0, true}}), pos);
  EXPECT_EQ(pos[0], 0u);  // control reused
  EXPECT_EQ(pos[1], 1u);  // target advanced
  ASSERT_EQ(t.indices.size(), 3u);
  // Sorted indices: [q0.t0 (ctrl), q1.t0 (in), q1.t1 (out)].
  // Entries (c, in, out): identity when c = 0, X when c = 1.
  test::expect_tdd_matches(t.edge, t.indices,
                           {cplx{1, 0}, cplx{0, 0}, cplx{0, 0}, cplx{1, 0},
                            cplx{0, 0}, cplx{1, 0}, cplx{1, 0}, cplx{0, 0}});
}

TEST(GateTensor, NegativeControl) {
  tdd::Manager mgr;
  std::vector<std::uint64_t> pos(2, 0);
  const auto t = gate_tensor(mgr, circ::Gate("cx0", circ::x(), {1}, {{0, false}}), pos);
  test::expect_tdd_matches(t.edge, t.indices,
                           {cplx{0, 0}, cplx{1, 0}, cplx{1, 0}, cplx{0, 0},
                            cplx{1, 0}, cplx{0, 0}, cplx{0, 0}, cplx{1, 0}});
}

TEST(GateTensor, MultiControlledXIsSmall) {
  tdd::Manager mgr;
  std::vector<std::uint64_t> pos(40, 0);
  std::vector<circ::Control> ctl;
  for (std::uint32_t q = 0; q + 1 < 40; ++q) ctl.push_back({q, true});
  const auto t = gate_tensor(mgr, circ::Gate("mcx", circ::x(), {39}, ctl), pos);
  EXPECT_EQ(t.indices.size(), 41u);
  // The TDD of C^39 X is linear in the number of controls, not exponential.
  EXPECT_LE(tdd::node_count(t.edge), 2 * 41u);
}

TEST(GateTensor, SwapMatchesDense) {
  tdd::Manager mgr;
  std::vector<std::uint64_t> pos(2, 0);
  const auto t = gate_tensor(mgr, circ::Gate("swap", circ::swap_matrix(), {0, 1}), pos);
  ASSERT_EQ(t.indices.size(), 4u);
  // indices sorted: q0.in, q0.out, q1.in, q1.out; value = SWAP(out0 out1, in0 in1).
  const auto dense = tdd::to_dense(t.edge, t.indices);
  for (std::size_t a = 0; a < 16; ++a) {
    const std::size_t in0 = (a >> 3) & 1u;
    const std::size_t out0 = (a >> 2) & 1u;
    const std::size_t in1 = (a >> 1) & 1u;
    const std::size_t out1 = a & 1u;
    const double expect = (out0 == in1 && out1 == in0) ? 1.0 : 0.0;
    EXPECT_NEAR(dense[a].real(), expect, 1e-12) << "assignment " << a;
  }
}

TEST(Network, TracksWirePositionsAndExternals) {
  tdd::Manager mgr;
  circ::Circuit c(3);
  c.h(0).cx(0, 1).z(2);  // q0: H advances; cx control reuses; z reuses
  const auto net = build_network(mgr, c);
  EXPECT_EQ(net.outputs[0], tdd::wire_level(0, 1));
  EXPECT_EQ(net.outputs[1], tdd::wire_level(1, 1));
  EXPECT_EQ(net.outputs[2], tdd::wire_level(2, 0));  // diagonal-only wire
  const auto ext = net.external_indices();
  EXPECT_EQ(ext.size(), 5u);  // q0: t0,t1; q1: t0,t1; q2: t0 (shared in/out)
}

TEST(Network, MonolithicContractionMatchesMatrix_Fixed) {
  tdd::Manager mgr;
  circ::Circuit c(2);
  c.h(0).cx(0, 1).z(1).h(1);
  expect_network_matches_matrix(mgr, c);
}

TEST(Network, MonolithicContractionMatchesMatrix_Generators) {
  for (std::uint32_t n = 2; n <= 4; ++n) {
    tdd::Manager mgr;
    expect_network_matches_matrix(mgr, circ::make_ghz(n));
    expect_network_matches_matrix(mgr, circ::make_bv(n));
    expect_network_matches_matrix(mgr, circ::make_qft(n));
    expect_network_matches_matrix(mgr, circ::make_grover_iteration(n));
    expect_network_matches_matrix(mgr, circ::make_qrw_step(n));
  }
}

TEST(Network, MonolithicContractionMatchesMatrix_Random) {
  Prng rng(77);
  for (int i = 0; i < 8; ++i) {
    tdd::Manager mgr;
    expect_network_matches_matrix(mgr, circ::make_random(3, 14, rng));
  }
}

TEST(ContractNetwork, SumsPrivateIndices) {
  tdd::Manager mgr;
  // A single tensor f(x) = 2 + 3x with empty keep: result Σ_x f = 5.
  const Tensor t{mgr.literal(4, cplx{2, 0}, cplx{5, 0}), {4}};
  const Tensor out = contract_network(mgr, {t}, {});
  ASSERT_TRUE(out.edge.is_terminal());
  EXPECT_TRUE(approx_equal(out.edge.weight, cplx{7, 0}));
}

TEST(ContractNetwork, RecordsPeakAndHonoursDeadline) {
  tdd::Manager mgr;
  const auto c = circ::make_qft(5);
  const auto net = build_network(mgr, c);
  ExecutionContext ctx;
  (void)contract_network(mgr, net.tensors, net.external_indices(), &ctx);
  EXPECT_GT(ctx.stats().peak_nodes, 0u);

  ExecutionContext expired;
  expired.set_deadline(Deadline::after(1e-12));
  EXPECT_THROW((void)contract_network(mgr, net.tensors, net.external_indices(), &expired),
               DeadlineExceeded);
}

TEST(IndexGraph, GroverFig5HighestDegrees) {
  // §V-A: for the 3-qubit Grover iteration the highest-degree vertices are
  // x_1^1, x_2^1 and x_1^3 — in our naming q0.t0, q1.t0 and q0.t2.
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_grover_iteration(3));
  const auto g = IndexGraph::from_network(net);
  const auto top3 = g.top_degree(3);
  const std::vector<Level> expect{tdd::wire_level(0, 0), tdd::wire_level(0, 2),
                                  tdd::wire_level(1, 0)};
  std::vector<Level> got = top3;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
  EXPECT_EQ(g.degree(tdd::wire_level(0, 0)), 4u);
}

TEST(IndexGraph, HyperedgeIncreasesDegree) {
  tdd::Manager mgr;
  circ::Circuit c(3);
  c.cx(0, 1).cx(0, 2);  // control q0.t0 shared by two gates
  const auto net = build_network(mgr, c);
  const auto g = IndexGraph::from_network(net);
  EXPECT_EQ(g.degree(tdd::wire_level(0, 0)), 4u);  // q1.t0,q1.t1,q2.t0,q2.t1
  EXPECT_EQ(g.degree(tdd::wire_level(1, 0)), 2u);
}

TEST(IndexGraph, IsolatedExternalWiresExist) {
  tdd::Manager mgr;
  circ::Circuit c(2);
  c.h(0);  // qubit 1 untouched
  const auto net = build_network(mgr, c);
  const auto g = IndexGraph::from_network(net);
  EXPECT_EQ(g.degree(tdd::state_level(1)), 0u);
  EXPECT_EQ(g.num_vertices(), 3u);
}

TEST(AdditionPartition, SlicesSumToWhole) {
  Prng rng(55);
  for (std::size_t k = 1; k <= 2; ++k) {
    tdd::Manager mgr;
    const auto c = circ::make_random(3, 12, rng);
    const auto net = build_network(mgr, c);
    const auto keep = net.external_indices();
    const Tensor whole = contract_network(mgr, net.tensors, keep);
    const auto part = addition_partition(mgr, net, k);
    ASSERT_EQ(part.slices.size(), std::size_t{1} << part.sliced.size());
    tdd::Edge sum = mgr.zero();
    for (const auto& slice : part.slices) {
      const Tensor st = contract_network(mgr, slice.tensors, keep);
      sum = mgr.add(sum, st.edge);
    }
    EXPECT_TRUE(tdd::same_tensor(sum, whole.edge, 1e-8)) << "k = " << k;
  }
}

TEST(AdditionPartition, GroverSlicedIndexIsHighDegree) {
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_grover_iteration(3));
  const auto part = addition_partition(mgr, net, 1);
  ASSERT_EQ(part.sliced.size(), 1u);
  const auto g = IndexGraph::from_network(net);
  EXPECT_EQ(g.degree(part.sliced[0]), 4u);
}

TEST(ContractionPartition, BitFlipCodeYieldsSixBlocks) {
  // §V-B's worked example: the 6-qubit syndrome circuit with k1 = 3, k2 = 2
  // cuts into six blocks (2 bands × 3 windows).
  tdd::Manager mgr;
  circ::Circuit u(6);
  u.cx(0, 3).cx(1, 3).cx(1, 4).cx(2, 4).cx(0, 5).cx(2, 5);
  const auto net = build_network(mgr, u);
  const auto blocks = contraction_partition(mgr, net, 3, 2);
  EXPECT_EQ(blocks.size(), 6u);
  std::uint32_t max_window = 0;
  std::uint32_t max_group = 0;
  for (const auto& b : blocks) {
    max_window = std::max(max_window, b.window);
    max_group = std::max(max_group, b.group);
  }
  EXPECT_EQ(max_window, 2u);
  EXPECT_EQ(max_group, 1u);
}

TEST(ContractionPartition, BlocksRecontractToWhole) {
  Prng rng(66);
  for (int i = 0; i < 4; ++i) {
    tdd::Manager mgr;
    const auto c = circ::make_random(4, 16, rng);
    const auto net = build_network(mgr, c);
    const auto keep = net.external_indices();
    const Tensor whole = contract_network(mgr, net.tensors, keep);
    const auto blocks = contraction_partition(mgr, net, 2, 2);
    std::vector<Tensor> block_tensors;
    for (const auto& b : blocks) block_tensors.push_back(b.tensor);
    const Tensor re = contract_network(mgr, block_tensors, keep);
    EXPECT_TRUE(tdd::same_tensor(re.edge, whole.edge, 1e-8)) << "iteration " << i;
  }
}

TEST(ContractionPartition, ParameterValidation) {
  tdd::Manager mgr;
  const auto net = build_network(mgr, circ::make_ghz(3));
  EXPECT_THROW((void)contraction_partition(mgr, net, 0, 2), InvalidArgument);
  EXPECT_THROW((void)contraction_partition(mgr, net, 2, 0), InvalidArgument);
}

TEST(Tensor, IndexSetHelpers) {
  const std::vector<Level> a{1, 3, 5};
  const std::vector<Level> b{3, 4, 5};
  EXPECT_EQ(shared_indices(a, b), (std::vector<Level>{3, 5}));
  EXPECT_EQ(union_indices(a, b), (std::vector<Level>{1, 3, 4, 5}));
  EXPECT_EQ(minus_indices(a, b), (std::vector<Level>{1}));
  const Tensor t{{}, a};
  EXPECT_TRUE(t.has_index(3));
  EXPECT_FALSE(t.has_index(2));
}

/// A random circuit on n qubits in which one qubit has no gate and one
/// other qubit only diagonal gates (phases, projectors, controlled phases)
/// or control wires, so both keep their input level as their output.  With
/// n = 1 the one qubit is idle when `variant` is even, diagonal when odd.
circ::Circuit state_out_circuit(std::uint32_t n, int variant, Prng& rng) {
  circ::Circuit c(n);
  if (variant % 3 == 2) c.set_global_factor(cplx{0.6, -0.8});
  const auto pick = [&] { return static_cast<std::uint32_t>(rng.uniform_int(0, n - 1)); };
  const std::uint32_t idle = n == 1 && variant % 2 == 1 ? n : pick();
  std::uint32_t diag = n == 1 ? 0 : pick();
  while (n > 1 && diag == idle) diag = pick();
  std::vector<std::uint32_t> active;
  for (std::uint32_t q = 0; q < n; ++q) {
    if (q != idle) active.push_back(q);
  }
  if (active.empty()) return c;
  const auto pick_active = [&] {
    const auto last = static_cast<std::int64_t>(active.size()) - 1;
    return active[static_cast<std::size_t>(rng.uniform_int(0, last))];
  };
  for (std::uint32_t g = 0; g < 3 * n + 2; ++g) {
    const std::uint32_t t = pick_active();
    const std::uint32_t ctrl = pick_active();
    const bool controlled = ctrl != t;
    const double th = rng.uniform(0.0, 6.0);
    if (t == diag) {
      switch (rng.uniform_int(0, 4)) {
        case 0: c.t(t); break;
        case 1: c.rz(t, th); break;
        case 2: c.proj(t, static_cast<int>(rng.uniform_int(0, 1))); break;
        default: controlled ? c.cp(ctrl, t, th) : c.s(t); break;
      }
    } else {
      switch (rng.uniform_int(0, 4)) {
        case 0: c.h(t); break;
        case 1: c.ry(t, th); break;
        case 2: c.x(t); break;
        default: controlled ? c.cx(ctrl, t) : c.rx(t, th); break;
      }
    }
  }
  return c;
}

/// Each engine's cut of `net` into terms (image.cpp's prepare functions).
std::vector<std::vector<Tensor>> prepared_terms(tdd::Manager& mgr, const CircuitNetwork& net,
                                                const std::string& spec) {
  if (net.tensors.empty()) return {{}};
  std::vector<std::vector<Tensor>> terms;
  const auto keep = net.external_indices();
  if (spec == "basic") {
    terms.push_back({contract_network(mgr, net.tensors, keep)});
  } else if (spec == "addition:1") {
    const auto part = addition_partition(mgr, net, 1);
    const auto plan = plan_order(part.slices.front().tensors, keep, OrderPolicy::kGreedy);
    for (const auto& slice : part.slices) {
      terms.push_back({contract_network(mgr, slice.tensors, keep, nullptr, plan)});
    }
  } else {
    auto& blocks = terms.emplace_back();
    for (const auto& b : contraction_partition(mgr, net, 2, 2)) {
      const bool unit = b.tensor.indices.empty() && b.tensor.edge.is_terminal() &&
                        b.tensor.edge.weight == cplx{1.0, 0.0};
      if (!unit) blocks.push_back(b.tensor);
    }
  }
  return terms;
}

TEST(Contract, StateOutViewMatchesRename) {
  Prng rng(30);
  for (std::uint32_t n = 1; n <= 6; ++n) {
    for (int variant = 0; variant < 4; ++variant) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", variant = " + std::to_string(variant));
      tdd::Manager mgr;
      const circ::Circuit c = state_out_circuit(n, variant, rng);
      const CircuitNetwork net = build_network(mgr, c);
      std::vector<std::pair<Level, Level>> to_state;
      for (std::uint32_t q = 0; q < n; ++q) {
        const Level state = tdd::state_level(q);
        if (net.outputs[q] != state) to_state.emplace_back(net.outputs[q], state);
      }
      const tdd::Edge ket = ket_from_dense(mgr, n, test::random_dense(rng, n));
      // The rename oracle: the plain fold, then a separate rename pass.
      const auto renamed = [&](std::span<const Tensor> ops, const Push& p) {
        if (ops.empty()) return mgr.scale(ket, p.factor);
        const tdd::Edge plain =
            contract_planned(mgr, ket, ops, p.plan, nullptr, tdd::OperandView::kPlain);
        return mgr.scale(mgr.rename(plain, to_state), p.factor);
      };
      for (const std::string spec : {"basic", "addition:1", "contraction:2,2"}) {
        SCOPED_TRACE(spec);
        const auto terms = prepared_terms(mgr, net, spec);
        const Push p = plan_push(net, terms.front(), nullptr);
        tdd::Edge sum = mgr.zero();
        for (const auto& term : terms) {
          const tdd::Edge expected = renamed(term, p);
          EXPECT_TRUE(tdd::same_tensor(push(mgr, ket, term, p, nullptr), expected));
          sum = mgr.add(sum, expected);
        }
        const auto engine = make_engine(mgr, spec);
        EXPECT_TRUE(tdd::same_tensor(engine->apply_kraus(c, ket), sum));
      }
      EXPECT_TRUE(tdd::same_tensor(apply_circuit_tdd(mgr, c, ket),
                                   renamed(net.tensors, plan_push(net, net.tensors, nullptr))));
    }
  }
}

}  // namespace
}  // namespace qts::tn
