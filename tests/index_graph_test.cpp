/// \file index_graph_test.cpp
/// Direct unit suite for IndexGraph (tn/index_graph.hpp): the sorted-unique
/// vector adjacency, hand-computed neighbourhoods and the contracted-pair
/// widths they imply, and determinism of top_degree.  tn_test.cpp covers the
/// Fig. 5 paper claims; this file pins the accessor contracts themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/index_graph.hpp"

namespace qts::tn {
namespace {

using tdd::Level;

IndexGraph graph_of(const circ::Circuit& c) {
  tdd::Manager mgr;
  return IndexGraph::from_network(build_network(mgr, c));
}

std::vector<Level> sorted(std::vector<Level> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Width of the index set left visible by merging vertices `a` and `b`:
// |N(a) ∪ N(b) \ {a, b}|, read off the sorted neighbour vectors.
std::size_t contracted_width(const IndexGraph& g, Level a, Level b) {
  std::vector<Level> u;
  std::set_union(g.neighbours(a).begin(), g.neighbours(a).end(), g.neighbours(b).begin(),
                 g.neighbours(b).end(), std::back_inserter(u));
  return static_cast<std::size_t>(
      std::count_if(u.begin(), u.end(), [&](Level v) { return v != a && v != b; }));
}

TEST(IndexGraphDirect, NeighboursAreSortedUniqueAndMatchDegree) {
  circ::Circuit c(3);
  c.cx(0, 1).cx(0, 2).h(1);
  const IndexGraph g = graph_of(c);
  for (const Level v : g.vertices()) {
    const std::vector<Level>& nb = g.neighbours(v);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    EXPECT_EQ(std::adjacent_find(nb.begin(), nb.end()), nb.end()) << "vertex " << v;
    EXPECT_EQ(nb.size(), g.degree(v));
    EXPECT_EQ(std::count(nb.begin(), nb.end(), v), 0) << "self-loop at " << v;
  }
}

TEST(IndexGraphDirect, AdjacencyIsSymmetric) {
  const IndexGraph g = graph_of(circ::make_grover_iteration(4));
  for (const Level v : g.vertices()) {
    for (const Level w : g.neighbours(v)) {
      const std::vector<Level>& back = g.neighbours(w);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v))
          << w << " does not list " << v;
    }
  }
}

TEST(IndexGraphDirect, NeighboursHandComputed) {
  // cx(0,1): clique over {q0.t0, q1.t0, q1.t1} (the control index is
  // reused, so qubit 0 contributes a single vertex).
  circ::Circuit c(2);
  c.cx(0, 1);
  const IndexGraph g = graph_of(c);
  const Level a = tdd::wire_level(0, 0);
  const Level b = tdd::wire_level(1, 0);
  const Level b1 = tdd::wire_level(1, 1);
  EXPECT_EQ(g.neighbours(a), sorted({b, b1}));
  EXPECT_EQ(g.neighbours(b), sorted({a, b1}));
  EXPECT_EQ(g.neighbours(b1), sorted({a, b}));

  // Two gates sharing the control make q0.t0 a hyperedge vertex:
  // N(q0.t0) = {q1.t0, q1.t1, q2.t0, q2.t1}, while each target wire sees
  // only the control and its own gate's other wire.
  circ::Circuit h(3);
  h.cx(0, 1).cx(0, 2);
  const IndexGraph gh = graph_of(h);
  const Level q1in = tdd::wire_level(1, 0);
  const Level q1out = tdd::wire_level(1, 1);
  EXPECT_EQ(gh.neighbours(a),
            sorted({q1in, q1out, tdd::wire_level(2, 0), tdd::wire_level(2, 1)}));
  EXPECT_EQ(gh.neighbours(q1in), sorted({a, q1out}));
}

TEST(IndexGraphDirect, ContractedWidthHandComputed) {
  circ::Circuit c(2);
  c.cx(0, 1);
  const IndexGraph g = graph_of(c);
  const Level a = tdd::wire_level(0, 0);
  const Level b = tdd::wire_level(1, 0);
  const Level b1 = tdd::wire_level(1, 1);
  // N(a) = {b, b1}, N(b) = {a, b1}: merging {a, b} leaves only b1 outside.
  EXPECT_EQ(contracted_width(g, a, b), 1u);
  // N(a) ∪ N(b1) \ {a, b1} = {b}.
  EXPECT_EQ(contracted_width(g, a, b1), 1u);
}

TEST(IndexGraphDirect, ContractedWidthExcludesBothEndpointsOnly) {
  // Two gates sharing the control make q0.t0 a hyperedge vertex:
  // N(q0.t0) = {q1.t0, q1.t1, q2.t0, q2.t1}.
  circ::Circuit c(3);
  c.cx(0, 1).cx(0, 2);
  const IndexGraph g = graph_of(c);
  const Level ctrl = tdd::wire_level(0, 0);
  const Level q1in = tdd::wire_level(1, 0);
  // N(ctrl) ∪ N(q1in) \ {ctrl, q1in} = {q1.t1, q2.t0, q2.t1}.
  EXPECT_EQ(contracted_width(g, ctrl, q1in), 3u);
  // Merging the two target wires of ONE gate: N(q1.t0) = {ctrl, q1.t1},
  // N(q1.t1) = {ctrl, q1.t0} → just {ctrl}.
  EXPECT_EQ(contracted_width(g, q1in, tdd::wire_level(1, 1)), 1u);
}

TEST(IndexGraphDirect, IsolatedVerticesHaveZeroWidthPairs) {
  circ::Circuit c(3);
  c.h(0);  // qubits 1 and 2 untouched: isolated state-level vertices
  const IndexGraph g = graph_of(c);
  const Level i1 = tdd::state_level(1);
  const Level i2 = tdd::state_level(2);
  EXPECT_EQ(g.degree(i1), 0u);
  EXPECT_TRUE(g.neighbours(i1).empty());
  EXPECT_TRUE(g.neighbours(i2).empty());
  // The connected side: N(q0.t0) = {q0.t1}.
  EXPECT_EQ(g.neighbours(tdd::wire_level(0, 0)), (std::vector<Level>{tdd::wire_level(0, 1)}));
}

TEST(IndexGraphDirect, TopDegreeDeterministicAndTieBrokenBySmallerLevel) {
  // Symmetric circuit: both cx target wires have identical degree, so the
  // tie must resolve towards the smaller level, run after run.
  circ::Circuit c(3);
  c.cx(0, 1).cx(0, 2);
  const IndexGraph g = graph_of(c);
  const auto first = g.top_degree(3);
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(graph_of(c).top_degree(3), first);
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first[0], tdd::wire_level(0, 0));  // unique degree-4 vertex
  // The remaining four candidates all have degree 2; smaller levels win.
  std::vector<Level> rest(first.begin() + 1, first.end());
  std::vector<Level> sorted_rest = rest;
  std::sort(sorted_rest.begin(), sorted_rest.end());
  EXPECT_EQ(rest, sorted_rest);
}

TEST(IndexGraphDirect, VerticesSortedAndCountsAgree) {
  const IndexGraph g = graph_of(circ::make_qft(5));
  const std::vector<Level> vs = g.vertices();
  EXPECT_EQ(vs.size(), g.num_vertices());
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end()));
  // Handshake: Σ degree is even and counts each clique edge twice.
  std::size_t total = 0;
  for (const Level v : vs) total += g.degree(v);
  EXPECT_EQ(total % 2, 0u);
}

}  // namespace
}  // namespace qts::tn
