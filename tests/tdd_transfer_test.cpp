/// Tests for cross-manager transfer through the text codec (tdd/io.hpp): a
/// diagram saved from one manager and loaded into another lands on the
/// canonical diagram there, identical between the string and stream forms
/// of the codec, with identical node counts and dense read-back; deep
/// diagrams exercise the iterative traversals (io save and load,
/// node_count, GC mark).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "tdd/io.hpp"
#include "test_helpers.hpp"

namespace qts::tdd {
namespace {

std::vector<Level> consecutive_levels(std::size_t rank) {
  std::vector<Level> levels(rank);
  for (std::size_t i = 0; i < rank; ++i) levels[i] = static_cast<Level>(i);
  return levels;
}

/// Copy the diagram rooted at `root` into `dst` through the text codec.
Edge transfer(const Edge& root, Manager& dst) { return load_string(dst, save_string(root)); }

TEST(Transfer, TerminalEdges) {
  Manager src;
  Manager dst;
  EXPECT_TRUE(transfer(src.zero(), dst).is_zero());
  EXPECT_TRUE(same_tensor(transfer(src.one(), dst), dst.one()));
  const Edge c = src.terminal(cplx{0.25, -3.0});
  EXPECT_TRUE(same_tensor(transfer(c, dst), dst.terminal(cplx{0.25, -3.0})));
}

TEST(Transfer, RandomTensorsMatchIoRoundTrip) {
  Prng rng(20260729);
  for (std::size_t rank = 1; rank <= 8; ++rank) {
    for (int rep = 0; rep < 8; ++rep) {
      Manager src;
      Manager dst;
      const auto levels = consecutive_levels(rank);
      const auto dense = test::random_dense(rng, rank);
      const Edge e = from_dense(src, dense, levels);

      const Edge transferred = transfer(e, dst);
      std::stringstream stream;
      save(e, stream);
      const Edge loaded = load(dst, stream);

      // Identical canonical diagram in the destination: same node pointer
      // (hash-consing), same weight, same size, same dense tensor.
      EXPECT_TRUE(same_tensor(transferred, loaded)) << "rank " << rank << " rep " << rep;
      EXPECT_EQ(transferred.node, loaded.node) << "rank " << rank << " rep " << rep;
      EXPECT_EQ(node_count(transferred), node_count(e));
      test::expect_tdd_matches(transferred, levels, dense);
    }
  }
}

TEST(Transfer, SharesStructureWithExistingNodes) {
  Prng rng(7);
  Manager src;
  Manager dst;
  const auto levels = consecutive_levels(6);
  const auto dense = test::random_dense(rng, 6);
  const Edge e = from_dense(src, dense, levels);

  const Edge first = transfer(e, dst);
  const std::size_t live_after_first = dst.live_nodes();
  const Edge second = transfer(e, dst);
  // The second copy hash-conses onto the first: no new nodes, same root.
  EXPECT_EQ(dst.live_nodes(), live_after_first);
  EXPECT_EQ(first.node, second.node);
  EXPECT_TRUE(same_tensor(first, second));
}

TEST(Transfer, IntoTheOwningManagerIsIdentity) {
  Prng rng(11);
  Manager mgr;
  const auto levels = consecutive_levels(5);
  const Edge e = from_dense(mgr, test::random_dense(rng, 5), levels);
  const Edge again = transfer(e, mgr);
  EXPECT_EQ(e.node, again.node);
  EXPECT_TRUE(same_tensor(e, again));
}

/// A path-shaped diagram with `depth` nodes: level i tests variable i and
/// only the low branch continues.  Deep enough that a recursive traversal
/// (node_count, GC mark, io save) would overflow the stack.
Edge make_deep_chain(Manager& mgr, std::size_t depth) {
  Edge e = mgr.one();
  for (std::size_t i = depth; i-- > 0;) {
    e = mgr.make_node(static_cast<Level>(i), e, mgr.zero());
  }
  return e;
}

TEST(Transfer, DeepDiagramsDoNotOverflowTheStack) {
  constexpr std::size_t kDepth = 200000;
  Manager src;
  Manager dst;
  const Edge chain = make_deep_chain(src, kDepth);
  EXPECT_EQ(node_count(chain), kDepth);  // iterative node_count

  const Edge moved = transfer(chain, dst);  // iterative io save and load
  EXPECT_EQ(node_count(moved), kDepth);

  // Iterative GC mark: everything reachable from the chain survives.
  const std::vector<Edge> roots{moved};
  EXPECT_EQ(dst.gc(roots), 0u);
  EXPECT_EQ(dst.live_nodes(), kDepth);
}

}  // namespace
}  // namespace qts::tdd
