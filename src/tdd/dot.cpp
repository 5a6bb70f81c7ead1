#include "tdd/dot.hpp"

#include <sstream>

#include "tdd/flat_table.hpp"

namespace qts::tdd {

namespace {

using NodeIds = FlatCache<const Node*, int>;

void emit(const Node* n, std::ostream& os, NodeIds& ids, int& next_id) {
  if (n == nullptr || ids.contains(n)) return;
  const int id = next_id++;
  ids.insert(n, id);
  os << "  n" << id << " [label=\"" << level_name(n->level()) << "\"];\n";
  emit(n->low().node, os, ids, next_id);
  emit(n->high().node, os, ids, next_id);
  for (int v = 0; v < 2; ++v) {
    const Edge& c = n->child(v);
    if (c.is_zero()) continue;  // Fig. 1 omits zero edges
    const char* colour = (v == 0) ? "blue" : "red";
    os << "  n" << id << " -> ";
    if (c.is_terminal()) {
      os << "term";
    } else {
      os << "n" << *ids.find(c.node);
    }
    os << " [color=" << colour;
    if (!approx_one(c.weight)) os << ", label=\"" << to_string(c.weight) << "\"";
    os << "];\n";
  }
}

}  // namespace

void to_dot(const Edge& root, std::ostream& os, const std::string& graph_name) {
  os << "digraph " << graph_name << " {\n";
  os << "  entry [shape=point];\n";
  os << "  term [shape=box, label=\"1\"];\n";
  NodeIds ids;
  int next_id = 0;
  emit(root.node, os, ids, next_id);
  os << "  entry -> ";
  if (root.is_terminal()) {
    os << "term";
  } else {
    os << "n" << *ids.find(root.node);
  }
  os << " [label=\"" << to_string(root.weight) << "\"];\n";
  os << "}\n";
}

std::string to_dot_string(const Edge& root, const std::string& graph_name) {
  std::ostringstream os;
  to_dot(root, os, graph_name);
  return os.str();
}

}  // namespace qts::tdd
