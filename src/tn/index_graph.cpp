#include "tn/index_graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qts::tn {

IndexGraph IndexGraph::from_network(const CircuitNetwork& net) {
  IndexGraph g;
  for (const auto& t : net.tensors) {
    for (tdd::Level a : t.indices) {
      auto& adj = g.adjacency_[a];  // ensure isolated vertices exist too
      for (tdd::Level b : t.indices) {
        if (a != b) adj.push_back(b);
      }
    }
  }
  // External wires of gate-free qubits still appear as (isolated) vertices.
  for (tdd::Level l : net.external_indices()) g.adjacency_[l];
  for (auto& [v, adj] : g.adjacency_) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  return g;
}

std::size_t IndexGraph::degree(tdd::Level v) const {
  const auto it = adjacency_.find(v);
  return it == adjacency_.end() ? 0 : it->second.size();
}

const std::vector<tdd::Level>& IndexGraph::neighbours(tdd::Level v) const {
  const auto it = adjacency_.find(v);
  require(it != adjacency_.end(), "unknown vertex in IndexGraph::neighbours");
  return it->second;
}

std::vector<tdd::Level> IndexGraph::top_degree(std::size_t k) const {
  std::vector<std::pair<std::size_t, tdd::Level>> ranked;
  ranked.reserve(adjacency_.size());
  for (const auto& [v, adj] : adjacency_) ranked.emplace_back(adj.size(), v);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<tdd::Level> out;
  for (std::size_t i = 0; i < k && i < ranked.size(); ++i) out.push_back(ranked[i].second);
  return out;
}

std::vector<tdd::Level> IndexGraph::vertices() const {
  std::vector<tdd::Level> out;
  out.reserve(adjacency_.size());
  for (const auto& [v, adj] : adjacency_) out.push_back(v);
  return out;
}

}  // namespace qts::tn
