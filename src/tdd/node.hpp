/// \file node.hpp
/// TDD nodes and weighted edges.
///
/// A TDD (tensor decision diagram, Hong et al. TODAES 2022) is a rooted DAG.
/// Every non-terminal node carries a variable level and two outgoing weighted
/// edges (value 0 = "low", value 1 = "high").  The single terminal is
/// represented by a null node pointer; an Edge with a null node is the
/// constant tensor equal to its weight.
///
/// Canonical form maintained by Manager::make_node:
///   * an edge with (approximately) zero weight is the unique zero edge
///     {nullptr, 0};
///   * a node whose two outgoing edges are identical is elided (the tensor
///     does not depend on that variable);
///   * outgoing weights are normalised by the maximum-magnitude weight (ties
///     broken towards the low edge), so the pivot edge has weight exactly 1
///     and the sibling has magnitude <= 1; the pivot factor is pushed up into
///     the incoming edge;
///   * nodes are hash-consed in a unique table with tolerance-bucketed
///     weights, so structurally equal tensors share the same node pointer.
#pragma once

#include <cstdint>

#include "common/complex.hpp"
#include "tdd/levels.hpp"

namespace qts::tdd {

class AuditAccess;
class Node;

/// Weighted edge; the fundamental handle to a TDD.  Value semantics: cheap to
/// copy, owned by the Manager's pools, valid until the Manager is destroyed
/// or a garbage collection proves it unreachable.
struct Edge {
  const Node* node = nullptr;
  cplx weight{0.0, 0.0};

  [[nodiscard]] bool is_terminal() const { return node == nullptr; }
  [[nodiscard]] bool is_zero() const { return node == nullptr && weight == cplx{0.0, 0.0}; }

  /// Level of the top variable (kTermLevel for terminal edges).
  [[nodiscard]] Level top_level() const;

  /// Structural equality with tolerance on the weight.  Because nodes are
  /// hash-consed, pointer equality on `node` is tensor equality up to the
  /// weight factor.
  [[nodiscard]] bool approx(const Edge& other, double eps = kEps) const {
    return node == other.node && approx_equal(weight, other.weight, eps);
  }
};

/// A hash-consed decision-diagram node.  Immutable after creation except for
/// `freed_`, which only the manager's free lists and gc() set.
class Node {
 public:
  Node(Level level, Edge low, Edge high, std::uint32_t id)
      : level_(level), low_(low), high_(high), id_(id) {}

  [[nodiscard]] Level level() const { return level_; }
  [[nodiscard]] const Edge& low() const { return low_; }
  [[nodiscard]] const Edge& high() const { return high_; }
  [[nodiscard]] const Edge& child(int value) const { return value == 0 ? low_ : high_; }

  /// Dense arena id: the node's slot index in its manager's NodeArena,
  /// unique among that manager's live nodes and below its arena capacity.
  /// A slot keeps its id when gc() recycles it, so ids are reused, never
  /// renumbered.  Nodes of different managers may share an id.
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  friend class Manager;
  friend class AuditAccess;  // structural auditor + its corruption API

  Level level_;
  Edge low_;
  Edge high_;
  bool freed_ = false;  // on the manager's free list
  std::uint32_t id_;    // arena slot index (see id())
};

// The id sits in the padding after `freed_`, and walks mark visits by id
// outside the node (see walk()): a node is 64 bytes, 4,096 to a slab block.
static_assert(sizeof(Node) == 64, "Node grew past 64 bytes");

inline Level Edge::top_level() const { return node == nullptr ? kTermLevel : node->level(); }

}  // namespace qts::tdd
