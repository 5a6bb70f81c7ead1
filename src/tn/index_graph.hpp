/// \file index_graph.hpp
/// The undirected index graph of a circuit tensor network (Fig. 5): one
/// vertex per index, an edge between two indices iff some gate touches both.
/// Because diagonal gates and control wires reuse indices, a vertex can be
/// incident to several gates — these are the hyperedges of §V-A, and they
/// are exactly what gives the good slicing candidates their high degree.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "tn/circuit_tensors.hpp"

namespace qts::tn {

class IndexGraph {
 public:
  /// Build from a circuit network: each gate tensor contributes a clique
  /// over its index set.
  static IndexGraph from_network(const CircuitNetwork& net);

  [[nodiscard]] std::size_t num_vertices() const { return adjacency_.size(); }

  /// Degree = number of distinct neighbouring indices.
  [[nodiscard]] std::size_t degree(tdd::Level v) const;

  /// Neighbours of `v`, sorted ascending and duplicate-free — iterable
  /// without std::set churn; the vertex must exist.
  [[nodiscard]] const std::vector<tdd::Level>& neighbours(tdd::Level v) const;

  /// The k highest-degree vertices; ties broken towards smaller levels so
  /// the choice is deterministic.
  [[nodiscard]] std::vector<tdd::Level> top_degree(std::size_t k) const;

  /// All vertices (sorted by level).
  [[nodiscard]] std::vector<tdd::Level> vertices() const;

 private:
  /// Sorted-unique adjacency lists; the map key order makes every
  /// traversal deterministic.
  std::map<tdd::Level, std::vector<tdd::Level>> adjacency_;
};

}  // namespace qts::tn
