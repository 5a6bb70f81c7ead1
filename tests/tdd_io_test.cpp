#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"
#include "tdd/io.hpp"
#include "test_helpers.hpp"

namespace qts::tdd {
namespace {

TEST(TddIo, RoundTripRandomTensor) {
  Manager mgr;
  Prng rng(31);
  const std::vector<Level> idx{0, 3, 5, 8};
  const auto dense = test::random_dense(rng, 4);
  const Edge e = from_dense(mgr, dense, idx);
  const Edge back = load_string(mgr, save_string(e));
  EXPECT_TRUE(same_tensor(back, e, 1e-12));
}

TEST(TddIo, RoundTripAcrossManagers) {
  Manager a;
  Manager b;
  Prng rng(32);
  const std::vector<Level> idx{1, 2, 4};
  const auto dense = test::random_dense(rng, 3);
  const Edge e = from_dense(a, dense, idx);
  const Edge moved = load_string(b, save_string(e));
  test::expect_tdd_matches(moved, idx, dense, 1e-12);
}

TEST(TddIo, ZeroAndTerminal) {
  Manager mgr;
  const Edge z = load_string(mgr, save_string(mgr.zero()));
  EXPECT_TRUE(z.is_zero());
  const Edge t = load_string(mgr, save_string(mgr.terminal(cplx{0.25, -1.5})));
  ASSERT_TRUE(t.is_terminal());
  EXPECT_TRUE(approx_equal(t.weight, cplx{0.25, -1.5}));
}

TEST(TddIo, ProjectorSurvivesRoundTrip) {
  Manager mgr;
  const auto sys = make_grover_system(mgr, 3);
  const Edge p = sys.initial.projector();
  Manager fresh;
  const Edge back = load_string(fresh, save_string(p));
  EXPECT_EQ(node_count(back), node_count(p));
  EXPECT_TRUE(operator_to_dense(back, 3).approx(operator_to_dense(p, 3), 1e-10));
}

TEST(TddIo, SharedNodesStayShared) {
  Manager mgr;
  // |+⟩|ψ⟩ + |−⟩|ψ⟩-style sharing: both children point at the same node.
  const Edge sub = mgr.literal(5, cplx{1, 0}, cplx{0.5, 0.5});
  const Edge e = mgr.make_node(1, sub, mgr.scale(sub, cplx{0.25, 0}));
  const std::string text = save_string(e);
  Manager fresh;
  const Edge back = load_string(fresh, text);
  EXPECT_EQ(node_count(back), 2u);  // not 3: sharing preserved
}

/// Bit-equality of two complex weights, including the sign of zero.
bool bit_equal(const cplx& a, const cplx& b) {
  return std::memcmp(&a, &b, sizeof(cplx)) == 0;
}

TEST(TddIo, SeventeenDigitWeightsRoundTripBitExactly) {
  // 17 significant digits round-trip any double exactly; the result-cache's
  // bit-identical-warm-run guarantee rests on this.
  Manager mgr;
  const cplx w0{1.0 / 3.0, std::sqrt(2.0)};
  const cplx w1{-std::acos(-1.0), 0.1};  // 0.1: classic not-exactly-representable
  const Edge e = mgr.literal(2, w0, w1);
  const Edge back = load_string(mgr, save_string(e));
  EXPECT_EQ(back.node, e.node);  // re-interned canonically: the same node
  EXPECT_TRUE(bit_equal(back.weight, e.weight));
}

TEST(TddIo, ZeroComponentIsWrittenUnsigned) {
  // A negative zero is written as "0": whether a weight's zero part carries
  // a sign depends on which sub-results the lossy op caches served, so it is
  // not part of a saved diagram.  Loading still reads "-0" as -0.0.
  Manager mgr;
  const Edge e = mgr.terminal(cplx{1.0, -0.0});
  ASSERT_TRUE(std::signbit(e.weight.imag()));
  EXPECT_EQ(save_string(e), "qtdd v1\nnodes 0\nroot -1 1 0\n");
  EXPECT_EQ(save_string(e), save_string(mgr.terminal(cplx{1.0, 0.0})));
  const Edge back = load_string(mgr, save_string(e));
  ASSERT_TRUE(back.is_terminal());
  EXPECT_TRUE(bit_equal(back.weight, cplx{1.0, 0.0}));

  const Edge parsed = load_string(mgr, "qtdd v1\nnodes 0\nroot -1 1 -0\n");
  EXPECT_TRUE(std::signbit(parsed.weight.imag()));

  const Edge lit = mgr.literal(5, cplx{1.0, 0.0}, cplx{0.1, -0.0});
  ASSERT_TRUE(std::signbit(lit.node->high().weight.imag()));
  const std::string text = save_string(lit);
  EXPECT_EQ(text, "qtdd v1\nnodes 1\n0 5 -1 1 0 -1 0.10000000000000001 0\nroot 0 1 0\n");
  const Edge lit_back = load_string(mgr, text);
  EXPECT_EQ(lit_back.node, lit.node);  // bucketed() reads both zeros as one
  EXPECT_EQ(save_string(lit_back), text);
}

TEST(TddIo, DenormalComponentsRoundTrip) {
  // A denormal component riding on a full-magnitude weight (a bare denormal
  // weight would be snapped to zero by the manager's kEps bucketing, which
  // is the canonical form's business, not io's).
  Manager mgr;
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const Edge e = mgr.terminal(cplx{1.0, denorm_min});
  const Edge back = load_string(mgr, save_string(e));
  ASSERT_TRUE(back.is_terminal());
  EXPECT_TRUE(bit_equal(back.weight, e.weight));

  const double big_denorm = denorm_min * 1e4;  // still below DBL_MIN
  const Edge lit = mgr.literal(1, cplx{big_denorm, 1.0}, cplx{0.5, -0.25});
  const Edge lit_back = load_string(mgr, save_string(lit));
  EXPECT_EQ(lit_back.node, lit.node);
  EXPECT_TRUE(bit_equal(lit_back.weight, lit.weight));
}

TEST(TddIo, TruncatedStreamsThrowParseError) {
  // Chop a real serialisation at every prefix length: nothing but the full
  // text may load, and every failure must be ParseError (not a crash, not a
  // silently wrong tensor).
  Manager mgr;
  const Edge sub = mgr.literal(3, cplx{1, 0}, cplx{0.5, 0.5});
  const Edge e = mgr.make_node(1, sub, mgr.scale(sub, cplx{0.25, 0}));
  const std::string text = save_string(e);
  // Every truncation up to the start of the final token must fail: the root
  // line is always incomplete.  (Truncation INSIDE the final number can
  // parse to a shorter value by stream semantics — the result-cache layer
  // guards against that with its own dimension check.)
  const std::size_t last_token = text.rfind(' ');
  ASSERT_NE(last_token, std::string::npos);
  for (std::size_t len = 0; len <= last_token; len += 5) {
    EXPECT_THROW((void)load_string(mgr, text.substr(0, len)), ParseError)
        << "prefix of length " << len << " must not parse";
  }
  EXPECT_THROW((void)load_string(mgr, text.substr(0, last_token)), ParseError);
  EXPECT_EQ(load_string(mgr, text).node, e.node);
}

TEST(TddIo, CorruptedStreamsThrowParseError) {
  Manager mgr;
  const Edge e = mgr.literal(2, cplx{1.0 / 3.0, 0}, cplx{0.25, -0.75});
  const std::string text = save_string(e);
  {
    std::string t = text;
    t[t.find("0.25")] = 'x';  // corrupt a weight digit
    EXPECT_THROW((void)load_string(mgr, t), ParseError);
  }
  {
    std::string t = text;
    t.replace(t.find("qtdd"), 4, "qtdx");  // corrupt the magic
    EXPECT_THROW((void)load_string(mgr, t), ParseError);
  }
  // Trailing bytes after the root line are NOT an error: load() consumes
  // exactly one document, which is what lets the result cache and the
  // canonical job text embed qtdd blobs mid-stream.
  EXPECT_EQ(load_string(mgr, text + "more data after the blob\n").node, e.node);
}

TEST(TddIo, MalformedInputsThrow) {
  Manager mgr;
  EXPECT_THROW((void)load_string(mgr, ""), ParseError);
  EXPECT_THROW((void)load_string(mgr, "qtdd v2\nnodes 0\nroot -1 1 0\n"), ParseError);
  EXPECT_THROW((void)load_string(mgr, "qtdd v1\nnodes 1\n0 3 5 1 0 -1 0 0\nroot 0 1 0\n"),
               ParseError);  // child id 5 is a forward/out-of-range reference
  EXPECT_THROW((void)load_string(mgr, "qtdd v1\nnodes 1\n0 3 -1 1 0\nroot 0 1 0\n"),
               ParseError);  // truncated node line
  EXPECT_THROW((void)load_string(mgr, "qtdd v1\nnodes 0\nroot 4 1 0\n"), ParseError);
}

TEST(TddIo, GoldenTextIsPinned) {
  // The exact bytes of save_string, pinned: the canonical job text embeds
  // tdd::save, so any formatter drift would silently re-key every on-disk
  // result cache.  The TDD holds a negative zero (written as 0), a denormal
  // and 17-significant-digit weights.
  Manager mgr;
  const double denorm = std::numeric_limits<double>::denorm_min() * 1e4;
  const Edge sub = mgr.literal(5, cplx{1.0, 0.0}, cplx{0.1, -0.0});
  const Edge top = mgr.make_node(2, sub, mgr.scale(sub, cplx{-1.0 / 3.0, 0.0}));
  const Edge e = mgr.scale(top, cplx{1.0 / 3.0, denorm});
  const std::string golden =
      "qtdd v1\n"
      "nodes 2\n"
      "0 5 -1 1 0 -1 0.10000000000000001 0\n"
      "1 2 0 1 0 0 -0.33333333333333331 0\n"
      "root 1 0.33333333333333331 4.9406564584124654e-320\n";
  EXPECT_EQ(save_string(e), golden);
  std::ostringstream os;
  save(e, os);
  EXPECT_EQ(os.str(), golden);
  const Edge back = load_string(mgr, golden);
  EXPECT_EQ(back.node, e.node);
  EXPECT_TRUE(bit_equal(back.weight, e.weight));
}

TEST(TddIo, NumericTokensAreStrict) {
  Manager mgr;
  const std::string good = "qtdd v1\nnodes 1\n0 3 -1 1 0 -1 0.5 0\nroot 0 1 0\n";
  ASSERT_EQ(load_string(mgr, good).node->level(), 3u);
  const auto bad = [&](std::string_view from, std::string_view to) {
    std::string t = good;
    const std::size_t at = t.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    t.replace(at, from.size(), to);
    EXPECT_THROW((void)load_string(mgr, t), ParseError) << t;
    std::istringstream is(t);
    EXPECT_THROW((void)load(mgr, is), ParseError) << t;
  };
  bad("0.5 0\n", "0.5x 0\n");                 // trailing bytes on a weight
  bad("root 0 1 0\n", "root 0 1 0x\n");       // ... at the end of the root line
  bad("root 0", "root 0z");                   // ... on an id
  bad("nodes 1", "nodes 1q");                 // ... on the count
  bad("0 3 -1", "0 -3 -1");                   // negative level
  bad("0 3 -1", "0 99999999999999999999999 -1");  // level beyond 64 bits
  bad("0 3 -1", "0 18446744073709551615 -1");     // the terminal's pseudo-level
  bad("0 3 -1", "0 3 -2");                    // negative id other than the terminal
  bad("0 3 -1", "0 3 -99999999999999999999"); // id beyond 64 bits
  bad("root 0", "root -2");                   // negative root id
  bad("root 0", "root 1");                    // root id out of range
  bad("0 3", "+0 3");                         // no signs on ids
  bad("0.5 0\n", "0.5 1e999\n");              // weight out of range
}

TEST(TddIo, ChildrenAboveTheirParentAreAParseError) {
  Manager mgr;
  EXPECT_THROW((void)load_string(mgr,
                                 "qtdd v1\nnodes 2\n0 3 -1 1 0 -1 0.5 0\n"
                                 "1 4 0 1 0 -1 0 0\nroot 1 1 0\n"),
               ParseError);
}

TEST(TddIo, MultiRootBlobsShareOneNodeTable) {
  Manager mgr;
  const Edge sub = mgr.literal(5, cplx{1, 0}, cplx{0.5, 0.5});
  const Edge a = mgr.make_node(1, sub, mgr.scale(sub, cplx{0.25, 0}));
  const Edge b = mgr.make_node(2, mgr.zero(), sub);
  const std::vector<Edge> roots{a, b, mgr.zero(), mgr.terminal(cplx{0.5, -1})};
  std::string text;
  save_roots(roots, text);
  // sub, a and b once each; one root line per root.
  EXPECT_NE(text.find("nodes 3\n"), std::string::npos);

  Manager fresh;
  std::string_view rest = text;
  const std::vector<Edge> back = load_roots(fresh, rest, roots.size());
  EXPECT_TRUE(rest == "\n");  // left just past the last root line's tokens
  ASSERT_EQ(back.size(), roots.size());
  EXPECT_EQ(back[0].node->low().node, back[1].node->high().node);  // shared
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_TRUE(bit_equal(back[i].weight, roots[i].weight)) << i;
  }
  EXPECT_TRUE(back[2].is_zero());
  rest = text;
  const std::vector<Edge> same = load_roots(mgr, rest, roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(same[i].node, roots[i].node) << i;  // re-interned in place
  }

  // The single-root blob is the one-root case of the same format.
  std::string one;
  save_roots(std::span<const Edge>(&a, 1), one);
  EXPECT_EQ(one, save_string(a));

  // No roots: just the node table.
  std::string none;
  save_roots({}, none);
  EXPECT_EQ(none, "qtdd v1\nnodes 0\n");
  rest = none;
  EXPECT_TRUE(load_roots(mgr, rest, 0).empty());

  // A blob with fewer root lines than requested is truncated.
  rest = text;
  EXPECT_THROW((void)load_roots(mgr, rest, roots.size() + 1), ParseError);
}

TEST(TddIo, StreamLoadConsumesExactlyOneBlob) {
  Manager mgr;
  const Edge a = mgr.literal(2, cplx{1.0 / 3.0, 0}, cplx{0.25, -0.75});
  const Edge b = mgr.literal(4, cplx{0.5, 0}, cplx{1, 0});
  std::istringstream is(save_string(a) + save_string(b) + "tail\n");
  EXPECT_EQ(load(mgr, is).node, a.node);
  EXPECT_EQ(load(mgr, is).node, b.node);
  std::string word;
  is >> word;
  EXPECT_EQ(word, "tail");
}

TEST(CacheStats, CountersAdvanceThroughBoundContext) {
  qts::ExecutionContext ctx;
  Manager mgr;
  mgr.bind_context(&ctx);
  const Edge a = mgr.literal(0, cplx{1, 0}, cplx{2, 0});
  (void)mgr.literal(0, cplx{1, 0}, cplx{2, 0});  // unique-table hit
  EXPECT_GE(ctx.stats().unique_hits, 1u);
  EXPECT_GE(ctx.stats().unique_misses, 1u);

  const Edge b = mgr.literal(1, cplx{1, 0}, cplx{3, 0});
  (void)mgr.add(a, b);
  (void)mgr.add(a, b);  // add-cache hit
  EXPECT_GE(ctx.stats().add_hits, 1u);
  EXPECT_GE(ctx.stats().add_misses, 1u);

  const std::vector<Level> gamma{0};
  (void)mgr.contract(a, b, gamma);
  EXPECT_GE(ctx.stats().cont_misses, 1u);

  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().add_hits, 0u);

  // Unbound managers count nothing.
  mgr.bind_context(nullptr);
  (void)mgr.add(a, b);
  EXPECT_EQ(ctx.stats().add_hits, 0u);
}

}  // namespace
}  // namespace qts::tdd
