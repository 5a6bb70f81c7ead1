#include "tdd/transfer.hpp"

#include <atomic>
#include <vector>

#include "tdd/flat_table.hpp"

namespace qts::tdd {

namespace {
std::atomic<std::uint64_t> transfer_calls_{0};
}  // namespace

std::uint64_t transfer_calls() { return transfer_calls_.load(std::memory_order_relaxed); }

Edge transfer(const Edge& root, Manager& dst) {
  transfer_calls_.fetch_add(1, std::memory_order_relaxed);
  if (root.node == nullptr) return dst.terminal(root.weight);

  // Post-order over the source DAG with an explicit stack: a node is rebuilt
  // once both children are memoised, so children always exist in `dst` before
  // their parents — the same bottom-up discipline as the io text format.
  FlatCache<const Node*, Edge> memo;  // source node -> rebuilt edge in dst
  std::vector<const Node*> stack;
  stack.reserve(64);
  stack.push_back(root.node);

  const auto rebuilt_child = [&](const Edge& child) -> Edge {
    if (child.node == nullptr) return dst.terminal(child.weight);
    return dst.scale(*memo.find(child.node), child.weight);
  };

  while (!stack.empty()) {
    const Node* n = stack.back();
    if (memo.contains(n)) {  // reached again through a second parent
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const Node* child : {n->low().node, n->high().node}) {
      if (child != nullptr && !memo.contains(child)) {
        stack.push_back(child);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    memo.insert(n, dst.make_node(n->level(), rebuilt_child(n->low()), rebuilt_child(n->high())));
  }
  return dst.scale(*memo.find(root.node), root.weight);
}

}  // namespace qts::tdd
