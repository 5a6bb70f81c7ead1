#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/execution_context.hpp"
#include "qts/subspace.hpp"
#include "tdd/arena.hpp"
#include "tdd/audit.hpp"
#include "tdd/dense.hpp"
#include "tdd/dot.hpp"
#include "tdd/levels.hpp"
#include "tdd/manager.hpp"
#include "tdd/paths.hpp"
#include "test_helpers.hpp"

namespace qts::tdd {
namespace {

const cplx kOne{1.0, 0.0};
const cplx kZero{0.0, 0.0};

TEST(Levels, WireLevelLayout) {
  EXPECT_LT(wire_level(0, 5), wire_level(1, 0));
  EXPECT_EQ(level_qubit(wire_level(3, 7)), 3u);
  EXPECT_EQ(level_pos(wire_level(3, 7)), 7u);
  EXPECT_LT(state_level(2), bra_level(2));
  EXPECT_LT(bra_level(2), state_level(3));
}

TEST(Levels, Names) {
  EXPECT_EQ(level_name(wire_level(2, 0)), "q2.t0");
  EXPECT_EQ(level_name(bra_level(1)), "q1.bra");
  EXPECT_EQ(level_name(kTermLevel), "term");
}

TEST(Manager, TerminalSnapsTinyWeights) {
  Manager mgr;
  EXPECT_TRUE(mgr.terminal(cplx{1e-14, 0.0}).is_zero());
  EXPECT_FALSE(mgr.terminal(cplx{1e-6, 0.0}).is_zero());
}

TEST(Manager, MakeNodeEliminatesRedundantNode) {
  Manager mgr;
  const Edge e = mgr.make_node(0, mgr.one(), mgr.one());
  EXPECT_TRUE(e.is_terminal());
  EXPECT_TRUE(approx_equal(e.weight, kOne));
}

TEST(Manager, MakeNodeZeroChildrenGiveZero) {
  Manager mgr;
  EXPECT_TRUE(mgr.make_node(0, mgr.zero(), mgr.zero()).is_zero());
}

TEST(Manager, MakeNodeNormalisesByMaxMagnitude) {
  Manager mgr;
  const Edge e = mgr.make_node(0, mgr.terminal(cplx{0.5, 0.0}), mgr.terminal(cplx{-2.0, 0.0}));
  ASSERT_FALSE(e.is_terminal());
  // Pivot is the high edge (-2): root weight -2, children (−0.25, 1).
  EXPECT_TRUE(approx_equal(e.weight, cplx{-2.0, 0.0}));
  EXPECT_TRUE(approx_equal(e.node->low().weight, cplx{-0.25, 0.0}));
  EXPECT_TRUE(approx_equal(e.node->high().weight, kOne));
}

TEST(Manager, HashConsingSharesStructure) {
  Manager mgr;
  const Edge a = mgr.literal(3, kOne, cplx{0.5, 0.5});
  const Edge b = mgr.literal(3, kOne, cplx{0.5, 0.5});
  EXPECT_EQ(a.node, b.node);
  EXPECT_TRUE(same_tensor(a, b));
}

TEST(Manager, HashConsingToleratesFloatNoise) {
  Manager mgr;
  const Edge a = mgr.literal(3, kOne, cplx{0.5, 0.5});
  const Edge b = mgr.literal(3, kOne, cplx{0.5 + 1e-12, 0.5 - 1e-12});
  EXPECT_EQ(a.node, b.node);
}

TEST(Manager, MakeNodeRejectsOutOfOrderChildren) {
  Manager mgr;
  const Edge deep = mgr.literal(1, kOne, kZero);
  EXPECT_THROW((void)mgr.make_node(2, deep, mgr.zero()), InvalidArgument);
}

TEST(Add, TerminalArithmetic) {
  Manager mgr;
  const Edge r = mgr.add(mgr.terminal(cplx{1.0, 2.0}), mgr.terminal(cplx{0.5, -2.0}));
  EXPECT_TRUE(r.is_terminal());
  EXPECT_TRUE(approx_equal(r.weight, cplx{1.5, 0.0}));
}

TEST(Add, CancellationYieldsZero) {
  Manager mgr;
  const Edge a = mgr.literal(0, kOne, cplx{-1.0, 0.0});
  const Edge b = mgr.scale(a, cplx{-1.0, 0.0});
  EXPECT_TRUE(mgr.add(a, b).is_zero());
}

TEST(Add, RelativeCancellationAtTinyScale) {
  Manager mgr;
  // Operands with a legitimately tiny global scale must cancel relatively.
  const Edge a = mgr.scale(mgr.literal(0, kOne, kOne), cplx{1e-20, 0.0});
  const Edge b = mgr.scale(a, cplx{-0.5, 0.0});
  const Edge r = mgr.add(a, b);
  EXPECT_FALSE(r.is_zero());
  EXPECT_TRUE(approx_equal(r.weight / a.weight, cplx{0.5, 0.0}, 1e-6));
}

TEST(Add, LargeWeightRatiosGetTheirOwnCacheEntries) {
  // add() caches on (a, b, bucketed(w_b / w_a)); ratios of 1e9 and 2e9 are
  // 1e19 and 2e19 grid steps apart from zero and must not share an entry.
  Manager mgr;
  const std::vector<Level> idx{0};
  const Edge a = mgr.literal(0, kOne, cplx{0.5, 0.0});
  const Edge b = mgr.literal(0, cplx{0.25, 0.0}, kOne);
  for (const double k : {1e9, 2e9}) {
    const std::vector<cplx> sum = to_dense(mgr.add(a, mgr.scale(b, cplx{k, 0.0})), idx);
    ASSERT_EQ(sum.size(), 2u);
    EXPECT_NEAR(sum[0].real(), 1.0 + 0.25 * k, 1e-6 * k) << k;
    EXPECT_NEAR(sum[1].real(), 0.5 + k, 1e-6 * k) << k;
  }
}

TEST(Add, IsCommutative) {
  Manager mgr;
  Prng rng(5);
  const std::vector<Level> idx{0, 1, 2};
  const auto da = test::random_dense(rng, 3);
  const auto db = test::random_dense(rng, 3);
  const Edge a = from_dense(mgr, da, idx);
  const Edge b = from_dense(mgr, db, idx);
  EXPECT_TRUE(same_tensor(mgr.add(a, b), mgr.add(b, a)));
}

TEST(Slice, FixesAVariable) {
  Manager mgr;
  const std::vector<Level> idx{0, 1};
  const std::vector<cplx> dense{kOne, cplx{2, 0}, cplx{3, 0}, cplx{4, 0}};
  const Edge e = from_dense(mgr, dense, idx);
  const Edge s0 = mgr.slice(e, 0, 0);
  const Edge s1 = mgr.slice(e, 0, 1);
  test::expect_tdd_matches(s0, std::vector<Level>{1}, {kOne, cplx{2, 0}});
  test::expect_tdd_matches(s1, std::vector<Level>{1}, {cplx{3, 0}, cplx{4, 0}});
}

TEST(Slice, OnAbsentVariableIsIdentity) {
  Manager mgr;
  const Edge e = mgr.literal(5, kOne, cplx{0.0, 1.0});
  EXPECT_TRUE(same_tensor(mgr.slice(e, 3, 0), e));
  EXPECT_TRUE(same_tensor(mgr.slice(e, 9, 1), e));
}

TEST(Conjugate, Involution) {
  Manager mgr;
  Prng rng(6);
  const std::vector<Level> idx{0, 1, 2, 3};
  const Edge e = from_dense(mgr, test::random_dense(rng, 4), idx);
  EXPECT_TRUE(same_tensor(mgr.conjugate(mgr.conjugate(e)), e));
}

TEST(Scale, ByZeroAndOne) {
  Manager mgr;
  const Edge e = mgr.literal(0, kOne, cplx{0.5, 0.0});
  EXPECT_TRUE(mgr.scale(e, kZero).is_zero());
  EXPECT_TRUE(same_tensor(mgr.scale(e, kOne), e));
}

TEST(Contract, InnerProductOfPlusStates) {
  Manager mgr;
  // |+>^n has a single-terminal TDD; contraction must still count the
  // summed-out variables (factor 2 each).
  const std::uint32_t n = 50;
  const double amp = std::pow(0.5, n / 2.0);
  const Edge plus = mgr.terminal(cplx{amp, 0.0});
  std::vector<Level> gamma;
  for (std::uint32_t q = 0; q < n; ++q) gamma.push_back(state_level(q));
  const Edge r = mgr.contract(mgr.conjugate(plus), plus, gamma);
  ASSERT_TRUE(r.is_terminal());
  EXPECT_NEAR(r.weight.real(), 1.0, 1e-9);
}

TEST(Contract, MatrixVectorProduct) {
  Manager mgr;
  // ϕ(x,y) = [[1,2],[3,4]] with x = column, y = row; v(x) = (5,6).
  const std::vector<Level> op_idx{0, 1};  // 0 = x (col), 1 = y (row)
  const std::vector<cplx> m{kOne, cplx{3, 0}, cplx{2, 0}, cplx{4, 0}};  // [x][y]
  const std::vector<cplx> v{cplx{5, 0}, cplx{6, 0}};
  const Edge me = from_dense(mgr, m, op_idx);
  const Edge ve = from_dense(mgr, v, std::vector<Level>{0});
  const Edge r = mgr.contract(me, ve, std::vector<Level>{0});
  test::expect_tdd_matches(r, std::vector<Level>{1}, {cplx{17, 0}, cplx{39, 0}});
}

TEST(Contract, SharedIndexNotInGammaIsPointwise) {
  Manager mgr;
  // Hyperedge semantics: a(x)·b(x) over the same x without summation.
  const Edge a = mgr.literal(0, cplx{2, 0}, cplx{3, 0});
  const Edge b = mgr.literal(0, cplx{5, 0}, cplx{7, 0});
  const Edge r = mgr.contract(a, b, {});
  test::expect_tdd_matches(r, std::vector<Level>{0}, {cplx{10, 0}, cplx{21, 0}});
}

TEST(Contract, GammaVariableMissingFromBothDoubles) {
  Manager mgr;
  const Edge a = mgr.terminal(cplx{3, 0});
  const Edge b = mgr.terminal(cplx{5, 0});
  const std::vector<Level> gamma{7};
  const Edge r = mgr.contract(a, b, gamma);
  ASSERT_TRUE(r.is_terminal());
  EXPECT_TRUE(approx_equal(r.weight, cplx{30, 0}));  // 2 * 15
}

TEST(Contract, RejectsUnsortedGamma) {
  Manager mgr;
  const std::vector<Level> gamma{3, 1};
  EXPECT_THROW((void)mgr.contract(mgr.one(), mgr.one(), gamma), InvalidArgument);
}

// -- the contraction memo, kept across contract() calls ----------------------

/// Dense reference for Manager::contract: multiply `a` (over `ia`) and `b`
/// (over `ib`) pointwise and sum out every level of `gamma`, including gamma
/// levels in neither operand.  The result is over `out`, the operands'
/// levels minus gamma, ascending.
std::vector<cplx> dense_contract(const Edge& a, const std::vector<Level>& ia, const Edge& b,
                                 const std::vector<Level>& ib, const std::vector<Level>& gamma,
                                 std::vector<Level>& out) {
  std::vector<Level> all = ia;
  all.insert(all.end(), ib.begin(), ib.end());
  all.insert(all.end(), gamma.begin(), gamma.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  out.clear();
  for (const Level l : all) {
    if (!std::binary_search(gamma.begin(), gamma.end(), l)) out.push_back(l);
  }
  // The MSB-first assignment of `sub` (a subsequence of `all`) within an
  // assignment of `all`.
  const auto project = [&](std::uint64_t x, const std::vector<Level>& sub) {
    std::uint64_t y = 0;
    for (const Level l : sub) {
      const auto at = static_cast<std::size_t>(std::find(all.begin(), all.end(), l) - all.begin());
      y = (y << 1) | ((x >> (all.size() - 1 - at)) & 1U);
    }
    return y;
  };
  std::vector<cplx> r(std::size_t{1} << out.size());
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << all.size()); ++x) {
    r[project(x, out)] += value_at(a, ia, project(x, ia)) * value_at(b, ib, project(x, ib));
  }
  return r;
}

/// contract(a, b, gamma) agrees with the dense reference.
void expect_contract_matches(Manager& mgr, const Edge& a, const std::vector<Level>& ia,
                             const Edge& b, const std::vector<Level>& ib,
                             const std::vector<Level>& gamma) {
  std::vector<Level> out;
  const std::vector<cplx> want = dense_contract(a, ia, b, ib, gamma, out);
  test::expect_tdd_matches(mgr.contract(a, b, gamma), out, want);
}

TEST(Contract, MemoServesEveryGammaInEitherCallOrder) {
  Manager mgr;
  Prng rng(31);
  const std::vector<Level> ia{0, 1, 2, 3};
  const std::vector<Level> ib{2, 3, 4};
  const Edge a = from_dense(mgr, test::random_dense(rng, ia.size()), ia);
  const Edge b = from_dense(mgr, test::random_dense(rng, ib.size()), ib);
  // No summation, one shared level, all shared levels, and a level in
  // neither operand (7, a factor 2) next to a summed non-shared level.
  const std::vector<std::vector<Level>> gammas{{}, {3}, {2, 3}, {1, 2, 3, 7}};
  for (const auto& gamma : gammas) expect_contract_matches(mgr, a, ia, b, ib, gamma);
  for (auto it = gammas.rbegin(); it != gammas.rend(); ++it) {
    expect_contract_matches(mgr, a, ia, b, ib, *it);
  }
  // The other operand order, on the warm memo.
  for (const auto& gamma : gammas) expect_contract_matches(mgr, b, ib, a, ia, gamma);
}

TEST(Contract, GammasSharingASuffixShareEntries) {
  Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  Prng rng(32);
  const std::vector<Level> ia{0, 1, 2, 3};
  const std::vector<Level> ib{2, 3};
  const Edge a = from_dense(mgr, test::random_dense(rng, ia.size(), 0.0), ia);
  const Edge b = from_dense(mgr, test::random_dense(rng, ib.size(), 0.0), ib);
  expect_contract_matches(mgr, a, ia, b, ib, {0, 2, 3});
  const std::size_t hits = ctx.stats().cont_hits;
  // {1, 2, 3} shares the suffix {2, 3}: below level 1 the sub-contractions
  // are the ones {0, 2, 3} already memoised.
  expect_contract_matches(mgr, a, ia, b, ib, {1, 2, 3});
  EXPECT_GT(ctx.stats().cont_hits, hits);
  // A gamma with the same length but another suffix must not be served
  // from those entries.
  expect_contract_matches(mgr, a, ia, b, ib, {1, 2, 4});
  mgr.bind_context(nullptr);
}

TEST(Contract, RepeatedCallAddsNoMisses) {
  Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  Prng rng(33);
  const std::vector<Level> idx{0, 1, 2, 3, 4};
  const Edge a = from_dense(mgr, test::random_dense(rng, idx.size()), idx);
  const Edge b = from_dense(mgr, test::random_dense(rng, idx.size()), idx);
  const std::vector<Level> gamma{1, 3};
  const Edge first = mgr.contract(a, b, gamma);
  const RunStats before = ctx.stats();
  EXPECT_GT(before.cont_misses, 0U);
  const Edge second = mgr.contract(a, b, gamma);
  EXPECT_EQ(ctx.stats().cont_misses, before.cont_misses);
  EXPECT_EQ(ctx.stats().cont_hits, before.cont_hits + 1);
  EXPECT_EQ(second.node, first.node);
  EXPECT_EQ(second.weight, first.weight);
  mgr.bind_context(nullptr);
}

TEST(Contract, GcAndClearCachesEmptyTheMemo) {
  Manager mgr;
  Prng rng(34);
  const std::vector<Level> idx{0, 1, 2, 3, 4};
  const Edge a = from_dense(mgr, test::random_dense(rng, idx.size()), idx);
  const Edge b = from_dense(mgr, test::random_dense(rng, idx.size()), idx);
  const std::vector<Level> gamma{0, 2, 4};
  const auto expect_clean = [&](const std::vector<Edge>& roots) {
    AuditReport report;
    EXPECT_TRUE(audit(mgr, report, roots)) << report.summary();
  };
  Edge r = mgr.contract(a, b, gamma);
  // Live entries between calls reference only interned nodes.
  EXPECT_GT(mgr.storage_stats().cont_cache_entries, 0U);
  expect_clean({a, b, r});

  const std::vector<Edge> roots{a, b};
  (void)mgr.gc(roots);
  EXPECT_EQ(mgr.storage_stats().cont_cache_entries, 0U);
  EXPECT_EQ(mgr.storage_stats().cont_cache_bytes, 0U);  // suffix table too
  expect_contract_matches(mgr, a, idx, b, idx, gamma);
  expect_clean(roots);

  r = mgr.contract(b, a, gamma);
  EXPECT_GT(mgr.storage_stats().cont_cache_entries, 0U);
  mgr.clear_caches();
  EXPECT_EQ(mgr.storage_stats().cont_cache_entries, 0U);
  EXPECT_EQ(mgr.storage_stats().cont_cache_bytes, 0U);
  expect_clean({a, b, r});
}

TEST(Contract, MemoStaysWithinItsBudgetBetweenCalls) {
  // The op caches are lossy tables capped at kMaxSlots slots: contracting
  // far past the cap keeps every result right and each cache within it.
  using Table = ComputedTable<const Node*, Edge, PtrHash>;
  // The larger op-cache slot: an AddKey, its Edge and an occupancy flag.
  constexpr std::size_t kSlotBytes = 64;
  Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  Prng rng(35);
  const std::vector<Level> idx{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Edge first_a = from_dense(mgr, test::random_dense(rng, idx.size(), 0.0), idx);
  const Edge first_b = from_dense(mgr, test::random_dense(rng, idx.size(), 0.0), idx);
  (void)mgr.contract(first_a, first_b, {});
  while (ctx.stats().cont_misses < 3 * Table::kMaxSlots) {
    const Edge a = from_dense(mgr, test::random_dense(rng, idx.size(), 0.0), idx);
    const Edge b = from_dense(mgr, test::random_dense(rng, idx.size(), 0.0), idx);
    (void)mgr.contract(a, b, std::vector<Level>{3, 7});
    const Manager::StorageStats st = mgr.storage_stats();
    ASSERT_LE(st.cont_cache_entries, Table::kMaxSlots);
    ASSERT_LE(st.add_cache_entries, Table::kMaxSlots);
    ASSERT_LE(st.cont_cache_bytes, Table::kMaxSlots * kSlotBytes);
    ASSERT_LE(st.add_cache_bytes, Table::kMaxSlots * kSlotBytes);
  }
  // The churn grew the contraction cache to the cap: {ContKey, Edge, used}
  // slots are 56 bytes.
  EXPECT_GE(mgr.storage_stats().cont_cache_bytes, Table::kMaxSlots * 56);
  expect_contract_matches(mgr, first_a, idx, first_b, idx, {});
  expect_contract_matches(mgr, first_a, idx, first_b, idx, {3, 7});
  mgr.bind_context(nullptr);
}

TEST(Contract, WarmRepeatOfALargeCallIsATopLevelHit) {
  // A pointwise product of two dense 15-index tensors takes 2^15 - 1
  // recursive steps, more than the 16,384 entries the memo once kept before
  // emptying itself.  The top-level entry is the call's last insert, so a
  // warm repeat is one hit and no miss.
  Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  Prng rng(36);
  std::vector<Level> idx(15);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<Level>(i);
  const Edge a = from_dense(mgr, test::random_dense(rng, idx.size(), 0.0), idx);
  const Edge b = from_dense(mgr, test::random_dense(rng, idx.size(), 0.0), idx);
  const Edge first = mgr.contract(a, b, {});
  const RunStats cold = ctx.stats();
  ASSERT_GT(cold.cont_misses, 16384U);
  const Edge second = mgr.contract(a, b, {});
  EXPECT_EQ(ctx.stats().cont_misses, cold.cont_misses);
  EXPECT_EQ(ctx.stats().cont_hits, cold.cont_hits + 1);
  EXPECT_EQ(second.node, first.node);
  EXPECT_EQ(second.weight, first.weight);
  mgr.bind_context(nullptr);
}

TEST(Contract, OperatorOnBasisKetCostsTheResultNotTheOperator) {
  // A basis ket is zero on every branch but one, so a dense operator applied
  // to it must not walk the operator's other columns: the misses are bounded
  // by the result's size (3 per node), not by the operator's 2^(2n) - 1
  // nodes.
  Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  Prng rng(36);
  constexpr std::uint32_t n = 6;
  constexpr std::size_t dim = std::size_t{1} << n;
  la::Matrix m(dim, dim);
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) m(r, c) = rng.complex_unit_box();
  }
  const Edge op = operator_from_dense(mgr, m, n);
  const Edge ket = ket_basis(mgr, n, 0);
  const std::size_t misses = ctx.stats().cont_misses;
  const Edge result = apply_operator(mgr, op, ket, n);
  const std::size_t result_misses = ctx.stats().cont_misses - misses;
  std::vector<cplx> column(dim);
  for (std::size_t r = 0; r < dim; ++r) column[r] = m(r, 0);
  test::expect_dense_eq(ket_to_dense(result, n), column);
  EXPECT_LE(result_misses, 3 * node_count(result));
  mgr.bind_context(nullptr);
}

// -- operand views: contract() reading conjugated / bra-level operands --------

/// A random n-qubit ket on the state levels, with exact zeros sprinkled in.
/// Shape 1 makes the amplitudes independent of qubit n/2, so the diagram
/// skips it; shape 2 zeroes the |1⟩ half of qubit 0, a zero-weight branch at
/// the top.
Edge random_view_ket(Manager& mgr, Prng& rng, std::uint32_t n, int shape) {
  std::vector<cplx> amps = test::random_dense(rng, n);
  const std::size_t skip_bit = std::size_t{1} << (n - 1 - n / 2);
  const std::size_t top_bit = std::size_t{1} << (n - 1);
  for (std::size_t x = 0; x < amps.size(); ++x) {
    if (shape == 1) amps[x] = amps[x & ~skip_bit];
    if (shape == 2 && (x & top_bit) != 0) amps[x] = kZero;
  }
  return ket_from_dense(mgr, n, amps);
}

TEST(Contract, ViewsMatchConjugateAndRenameCopies) {
  Manager mgr;
  Prng rng(41);
  for (std::uint32_t n = 1; n <= 6; ++n) {
    const std::vector<Level> kets = state_levels(n);
    const std::vector<Level> bras = bra_levels(n);
    std::vector<std::pair<Level, Level>> to_bra;
    for (std::uint32_t q = 0; q < n; ++q) to_bra.emplace_back(state_level(q), bra_level(q));
    for (int shape = 0; shape < 3; ++shape) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", shape = " + std::to_string(shape));
      const Edge a = random_view_ket(mgr, rng, n, shape);
      const Edge b = random_view_ket(mgr, rng, n, (shape + 1) % 3);
      const Edge c = random_view_ket(mgr, rng, n, (shape + 2) % 3);
      const Edge copy_inner = mgr.contract(mgr.conjugate(a), b, kets);
      ASSERT_TRUE(copy_inner.is_terminal());
      EXPECT_TRUE(approx_equal(inner(mgr, a, b, n), copy_inner.weight, kEps));
      EXPECT_TRUE(same_tensor(outer(mgr, a, b, n),
                              mgr.contract(a, mgr.rename(mgr.conjugate(b), to_bra), {})));
      // A general operator and the projector of a random subspace.
      const Edge op = from_dense(mgr, test::random_dense(rng, 2 * n), operator_levels(n));
      const Edge proj = Subspace::from_states(mgr, n, {a, b, c}).projector();
      for (const Edge& m : {op, proj}) {
        EXPECT_TRUE(same_tensor(apply_operator(mgr, m, c, n),
                                mgr.contract(m, mgr.rename(c, to_bra), bras)));
      }
    }
  }
}

TEST(Contract, ViewIsPartOfTheMemoKey) {
  // a = |0⟩ + i|1⟩: the plain contraction Σ a·a is 1 + i² = 0, the
  // conjugating one ⟨a|a⟩ is 2.  Both walk the same node pair with the same
  // gamma, so only the view tells their memo entries apart.
  const std::vector<Level> levels = state_levels(1);
  for (const bool inner_first : {false, true}) {
    Manager mgr;
    const Edge a = mgr.literal(state_level(0), kOne, cplx{0.0, 1.0});
    const auto plain = [&] {
      const Edge r = mgr.contract(a, a, levels);
      EXPECT_TRUE(r.is_zero()) << "inner_first = " << inner_first;
    };
    const auto conj = [&] {
      EXPECT_TRUE(approx_equal(inner(mgr, a, a, 1), cplx{2.0, 0.0}))
          << "inner_first = " << inner_first;
    };
    if (inner_first) conj();
    plain();
    if (!inner_first) conj();
  }
}

TEST(Contract, StateOutViewIsPartOfTheMemoKey) {
  // A random two-qubit ket through a random operator from the state levels
  // to the next wire position: the plain walk builds the image there, the
  // state-out walk on the state levels.  Both walk the same node pairs with
  // the same gamma, so only the view tells their memo entries apart.
  const std::vector<Level> kets = state_levels(2);
  const std::vector<Level> ops{state_level(0), wire_level(0, 1), state_level(1), wire_level(1, 1)};
  const std::vector<Level> outs{wire_level(0, 1), wire_level(1, 1)};
  const std::vector<std::pair<Level, Level>> to_state{{outs[0], kets[0]}, {outs[1], kets[1]}};
  for (const bool state_out_first : {false, true}) {
    SCOPED_TRACE("state_out_first = " + std::to_string(state_out_first));
    Manager mgr;
    Prng rng(31);
    const Edge ket = from_dense(mgr, test::random_dense(rng, 2, 0.0), kets);
    const Edge op = from_dense(mgr, test::random_dense(rng, 4, 0.0), ops);
    Edge plain;
    Edge out;
    if (state_out_first) out = mgr.contract(ket, op, kets, OperandView::kStateOut);
    plain = mgr.contract(ket, op, kets);
    if (!state_out_first) out = mgr.contract(ket, op, kets, OperandView::kStateOut);
    EXPECT_EQ(plain.top_level(), outs[0]);
    EXPECT_EQ(out.top_level(), kets[0]);
    EXPECT_TRUE(same_tensor(out, mgr.rename(plain, to_state)));
    test::expect_dense_eq(to_dense(out, kets), to_dense(plain, outs));
  }
}

TEST(Contract, BraViewRejectsARightOperandOffStateLevels) {
  Manager mgr;
  const Edge col = mgr.literal(bra_level(0), kOne, cplx{2.0, 0.0});
  EXPECT_THROW((void)mgr.contract(mgr.one(), col, {}, OperandView::kBraRight), InvalidArgument);
  // A terminal right operand has no levels to move.
  EXPECT_TRUE(same_tensor(mgr.contract(col, mgr.one(), {}, OperandView::kBraRight), col));
}

TEST(Rename, ShiftsLevelsPreservingValues) {
  Manager mgr;
  Prng rng(8);
  const std::vector<Level> idx{0, 1, 2};
  const auto dense = test::random_dense(rng, 3);
  const Edge e = from_dense(mgr, dense, idx);
  const std::vector<std::pair<Level, Level>> map{{0, 10}, {1, 11}, {2, 12}};
  const Edge r = mgr.rename(e, map);
  test::expect_tdd_matches(r, std::vector<Level>{10, 11, 12}, dense);
}

TEST(Rename, RejectsNonMonotoneMap) {
  Manager mgr;
  const std::vector<std::pair<Level, Level>> map{{0, 5}, {1, 4}};
  EXPECT_THROW((void)mgr.rename(mgr.one(), map), InvalidArgument);
}

TEST(DenseRoundTrip, Random) {
  Manager mgr;
  Prng rng(13);
  const std::vector<Level> idx{2, 5, 9, 11};
  const auto dense = test::random_dense(rng, 4);
  const Edge e = from_dense(mgr, dense, idx);
  test::expect_tdd_matches(e, idx, dense);
}

TEST(DenseRoundTrip, ValueAtAgreesWithToDense) {
  Manager mgr;
  Prng rng(14);
  const std::vector<Level> idx{0, 1, 2};
  const auto dense = test::random_dense(rng, 3);
  const Edge e = from_dense(mgr, dense, idx);
  for (std::uint64_t a = 0; a < 8; ++a) {
    EXPECT_TRUE(approx_equal(value_at(e, idx, a), dense[a], 1e-9));
  }
}

TEST(NodeCount, CountsSharedNodesOnce) {
  Manager mgr;
  // f(x0, x1) = x0 XOR x1 style structure shares nothing; |0..0> chain shares
  // the terminal. A 3-variable basis ket has 3 nodes.
  Manager m2;
  const std::vector<Level> idx{0, 1, 2};
  std::vector<cplx> ket(8, kZero);
  ket[0] = kOne;
  const Edge e = from_dense(m2, ket, idx);
  EXPECT_EQ(node_count(e), 3u);
  EXPECT_EQ(node_count(m2.one()), 0u);
}

/// Reference for node_count: a hash-set walk.  Also checks that the nodes it
/// reaches carry pairwise distinct arena ids, which the stamp walk relies on.
/// The ids go to `ids_out` when it is given.
std::size_t reference_node_count(std::span<const Edge> roots,
                                 std::unordered_set<std::uint32_t>* ids_out = nullptr) {
  std::unordered_set<const Node*> seen;
  std::unordered_set<std::uint32_t> ids;
  std::vector<const Node*> stack;
  for (const Edge& r : roots) {
    if (r.node != nullptr && seen.insert(r.node).second) stack.push_back(r.node);
  }
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ids.insert(n->id());
    for (const Node* child : {n->low().node, n->high().node}) {
      if (child != nullptr && seen.insert(child).second) stack.push_back(child);
    }
  }
  EXPECT_EQ(ids.size(), seen.size()) << "two reachable nodes share an arena id";
  if (ids_out != nullptr) *ids_out = std::move(ids);
  return seen.size();
}

std::size_t reference_node_count(const Edge& root) { return reference_node_count({&root, 1}); }

/// A random tensor of the given rank whose entries come from a small palette, so
/// equal sub-tensors (shared sub-DAGs) are common, with some exact zeros.
std::vector<cplx> palette_dense(Prng& rng, std::size_t rank) {
  const std::vector<cplx> palette{kZero, kOne, cplx{-0.5, 0.25}, cplx{0.0, 1.0}};
  std::vector<cplx> out(std::size_t{1} << rank);
  for (auto& v : out) v = palette[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  return out;
}

/// Seeded random diagrams for the node_count tests: palette tensors, random
/// tensors, sums of both (which share the operands' sub-DAGs) and nodes
/// built over two of them.
std::vector<Edge> random_diagrams(Manager& mgr, Prng& rng, int count) {
  const std::vector<Level> low_idx{2, 3, 4, 5, 6, 7};
  const std::vector<Level> wide_idx{1, 2, 3, 4, 5, 6, 7};
  std::vector<Edge> out;
  for (int i = 0; i < count; ++i) {
    const Edge a = from_dense(mgr, palette_dense(rng, 6), low_idx);
    const Edge b = from_dense(mgr, test::random_dense(rng, 7, 0.5), wide_idx);
    out.push_back(a);
    out.push_back(mgr.add(a, b));
    out.push_back(mgr.make_node(1, a, mgr.scale(a, cplx{0.5, 0.0})));
    out.push_back(mgr.make_node(0, out.back(), b));
  }
  return out;
}

TEST(NodeCount, MatchesAReferenceWalk) {
  Manager mgr;
  Prng rng(31);
  const std::vector<Edge> diagrams = random_diagrams(mgr, rng, 12);
  for (const Edge& e : diagrams) EXPECT_EQ(node_count(e), reference_node_count(e));
  // Each diagram again, in reverse: a walk's stamps never leak into the next.
  for (auto it = diagrams.rbegin(); it != diagrams.rend(); ++it) {
    EXPECT_EQ(node_count(*it), reference_node_count(*it));
  }
  EXPECT_EQ(node_count(mgr.zero()), 0u);
  EXPECT_EQ(node_count(mgr.one()), 0u);
  EXPECT_EQ(node_count(Edge{nullptr, cplx{-2.0, 0.5}}), 0u);
  // A node with a zero edge and a terminal edge.
  const Edge lit = mgr.make_node(3, mgr.zero(), mgr.one());
  EXPECT_EQ(node_count(lit), 1u);
  EXPECT_EQ(node_count(mgr.make_node(2, lit, mgr.one())), 2u);
}

TEST(NodeCount, ExactAfterGcRecyclesNodes) {
  Manager mgr;
  Prng rng(32);
  const std::vector<Edge> first = random_diagrams(mgr, rng, 8);
  const std::vector<Edge> keep{first[1], first[7]};
  ASSERT_GT(mgr.gc(keep), 0u);
  const std::size_t allocated = mgr.allocated_nodes();
  // Rebuilt diagrams take their nodes from the free list, ids included.
  const std::vector<Edge> second = random_diagrams(mgr, rng, 2);
  EXPECT_EQ(mgr.allocated_nodes(), allocated);
  for (const Edge& e : keep) EXPECT_EQ(node_count(e), reference_node_count(e));
  for (const Edge& e : second) EXPECT_EQ(node_count(e), reference_node_count(e));
  // Old and recycled nodes together: still one id per node.
  std::vector<Edge> all = keep;
  all.insert(all.end(), second.begin(), second.end());
  (void)reference_node_count(all);
}

TEST(NodeCount, TwoManagersOnOneThread) {
  Manager m1;
  Manager m2;
  Prng rng1(33);
  Prng rng2(34);
  const std::vector<Edge> d1 = random_diagrams(m1, rng1, 6);
  const std::vector<Edge> d2 = random_diagrams(m2, rng2, 6);
  // Both arenas number from 0, so the two managers' ids overlap.
  std::unordered_set<std::uint32_t> ids1;
  std::unordered_set<std::uint32_t> ids2;
  (void)reference_node_count(d1, &ids1);
  (void)reference_node_count(d2, &ids2);
  EXPECT_TRUE(std::ranges::any_of(ids1, [&](std::uint32_t id) { return ids2.contains(id); }));
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(node_count(d1[i]), reference_node_count(d1[i]));
    EXPECT_EQ(node_count(d2[i]), reference_node_count(d2[i]));
  }
}

TEST(NodeCount, ConcurrentWalksAgree) {
  Manager mgr;
  Prng rng(35);
  const std::vector<Edge> diagrams = random_diagrams(mgr, rng, 6);
  const Edge shared = diagrams.back();
  const std::size_t expected = reference_node_count(shared);
  ASSERT_GT(expected, 10u);
  constexpr int kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 200; ++rep) {
        if (node_count(shared) != expected) ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const std::size_t m : mismatches) EXPECT_EQ(m, 0u);
}

TEST(NodeCount, WalkCountsSharedNodesOnceAcrossRoots) {
  Manager mgr;
  Prng rng(36);
  const std::vector<Edge> diagrams = random_diagrams(mgr, rng, 6);
  // The diagrams share sub-DAGs, so the union is smaller than the sum.
  std::size_t sum = 0;
  for (const Edge& e : diagrams) sum += node_count(e);
  const std::size_t all = walk(diagrams);
  EXPECT_EQ(all, reference_node_count(diagrams));
  EXPECT_LT(all, sum);
  for (const Edge& e : diagrams) EXPECT_TRUE(walked(*e.node));
  // A prefix and a repeated root; terminal roots count nothing.
  const std::span<const Edge> prefix(diagrams.data(), 5);
  EXPECT_EQ(walk(prefix), reference_node_count(prefix));
  const std::vector<Edge> repeated{diagrams[3], mgr.one(), diagrams[3], mgr.zero()};
  EXPECT_EQ(walk(repeated), node_count(diagrams[3]));
  EXPECT_EQ(walk({}), 0u);
  EXPECT_FALSE(walked(*diagrams[3].node));
}

TEST(NodeArena, IdsStopAt32Bits) {
  EXPECT_EQ(NodeArena::first_id_of(0), 0u);
  EXPECT_EQ(NodeArena::first_id_of(NodeArena::kMaxBlocks - 1),
            (std::uint64_t{1} << 32) - NodeArena::kBlockNodes);
  try {
    (void)NodeArena::first_id_of(NodeArena::kMaxBlocks);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.resource, Resource::kMemory);
  }
}

TEST(Paths, LeftmostNonzeroPrefersLowEdges) {
  Manager mgr;
  const std::vector<Level> idx{0, 1};
  // f = [0, 0, 5, 7]: first non-zero assignment is (1, 0).
  const std::vector<cplx> dense{kZero, kZero, cplx{5, 0}, cplx{7, 0}};
  const Edge e = from_dense(mgr, dense, idx);
  const auto path = leftmost_nonzero_assignment(e, idx);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ((*path)[0], 1);
  EXPECT_EQ((*path)[1], 0);
}

TEST(Paths, ZeroTensorHasNoPath) {
  Manager mgr;
  const std::vector<Level> idx{0, 1};
  EXPECT_FALSE(leftmost_nonzero_assignment(mgr.zero(), idx).has_value());
}

TEST(Paths, IndependentVariablesPickZero) {
  Manager mgr;
  const Edge e = mgr.literal(1, kZero, kOne);  // depends only on level 1
  const std::vector<Level> idx{0, 1, 2};
  const auto path = leftmost_nonzero_assignment(e, idx);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ((*path)[0], 0);
  EXPECT_EQ((*path)[1], 1);
  EXPECT_EQ((*path)[2], 0);
}

TEST(Gc, FreesUnreachableNodes) {
  Manager mgr;
  Prng rng(21);
  const std::vector<Level> idx{0, 1, 2, 3, 4};
  const Edge keep = from_dense(mgr, test::random_dense(rng, 5), idx);
  const std::size_t before_live = mgr.live_nodes();
  // Create garbage.
  for (int i = 0; i < 10; ++i) {
    (void)from_dense(mgr, test::random_dense(rng, 5), idx);
  }
  EXPECT_GT(mgr.live_nodes(), before_live);
  const std::vector<Edge> roots{keep};
  const std::size_t freed = mgr.gc(roots);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(mgr.live_nodes(), node_count(keep));
  // The kept TDD still evaluates correctly and new allocations reuse nodes.
  const auto dense = to_dense(keep, idx);
  EXPECT_EQ(dense.size(), 32u);
  const Edge again = from_dense(mgr, dense, idx);
  EXPECT_TRUE(same_tensor(again, keep));
}

TEST(Gc, InterningAfterGcReusesFreeList) {
  Manager mgr;
  const Edge a = mgr.literal(0, kOne, cplx{0.25, 0.0});
  (void)a;
  const std::size_t allocated = mgr.allocated_nodes();
  const std::size_t freed = mgr.gc({});  // everything unreachable
  EXPECT_EQ(freed, allocated);
  const Edge b = mgr.literal(1, kOne, cplx{0.5, 0.0});
  (void)b;
  EXPECT_EQ(mgr.allocated_nodes(), allocated);  // node reused, no growth
}

TEST(Gc, TwoManagersOnOneThread) {
  Manager m1;
  Manager m2;
  Prng rng1(37);
  Prng rng2(38);
  const std::vector<Edge> d1 = random_diagrams(m1, rng1, 6);
  const std::vector<Edge> d2 = random_diagrams(m2, rng2, 6);
  std::unordered_set<std::uint32_t> ids1;
  std::unordered_set<std::uint32_t> ids2;
  (void)reference_node_count(d1, &ids1);
  (void)reference_node_count(d2, &ids2);
  ASSERT_TRUE(std::ranges::any_of(ids1, [&](std::uint32_t id) { return ids2.contains(id); }));
  const std::vector<Edge> keep1{d1[1], d1[6]};
  const std::vector<Edge> keep2{d2[3], d2[4], d2[9]};
  // The other manager's walk leaves stamps on ids this gc() sweeps.
  (void)walk(d2);
  EXPECT_GT(m1.gc(keep1), 0u);
  EXPECT_EQ(m1.live_nodes(), reference_node_count(keep1));
  (void)walk(keep1);
  EXPECT_GT(m2.gc(keep2), 0u);
  EXPECT_EQ(m2.live_nodes(), reference_node_count(keep2));
  EXPECT_EQ(m1.live_nodes(), reference_node_count(keep1));
  for (const Edge& e : keep1) EXPECT_EQ(node_count(e), reference_node_count(e));
  for (const Edge& e : keep2) EXPECT_EQ(node_count(e), reference_node_count(e));
}

TEST(Gc, RootOfAnotherManagerIsRefusedBeforeAnythingIsFreed) {
  Manager m1;
  Manager m2;
  Prng rng1(40);
  Prng rng2(41);
  const std::vector<Edge> d1 = random_diagrams(m1, rng1, 6);
  const std::vector<Edge> d2 = random_diagrams(m2, rng2, 6);
  const std::size_t live = m1.live_nodes();
  const std::vector<Edge> roots{d1[1], d2[4]};
  EXPECT_THROW(m1.gc(roots), InvalidArgument);
  EXPECT_EQ(m1.live_nodes(), live);
  EXPECT_EQ(m1.gc(std::vector<Edge>{d1[1]}), live - reference_node_count(d1[1]));
}

TEST(Gc, OnAnotherThread) {
  // Twin managers build the same diagrams; one collects on a worker thread,
  // whose stamps start empty, the other on this one.
  Manager here;
  Manager there;
  Prng rng_here(39);
  Prng rng_there(39);
  const std::vector<Edge> d_here = random_diagrams(here, rng_here, 6);
  const std::vector<Edge> d_there = random_diagrams(there, rng_there, 6);
  ASSERT_EQ(here.live_nodes(), there.live_nodes());
  const std::vector<Edge> keep_here{d_here[2], d_here[11]};
  const std::vector<Edge> keep_there{d_there[2], d_there[11]};
  std::size_t freed_there = 0;
  std::thread worker([&] { freed_there = there.gc(keep_there); });
  worker.join();
  const std::size_t freed_here = here.gc(keep_here);
  EXPECT_GT(freed_here, 0u);
  EXPECT_EQ(freed_there, freed_here);
  EXPECT_EQ(there.live_nodes(), reference_node_count(keep_there));
  EXPECT_EQ(here.live_nodes(), reference_node_count(keep_here));
}

TEST(Dot, ContainsLevelsAndWeights) {
  Manager mgr;
  const Edge e = mgr.make_node(
      state_level(0), mgr.literal(state_level(1), kOne, cplx{-0.5, 0.0}), mgr.zero());
  const auto dot = to_dot_string(e);
  EXPECT_NE(dot.find("q0.t0"), std::string::npos);
  EXPECT_NE(dot.find("q1.t0"), std::string::npos);
  EXPECT_NE(dot.find("-0.5"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

}  // namespace
}  // namespace qts::tdd
