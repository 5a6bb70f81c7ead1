#include <algorithm>

#include "common/error.hpp"
#include "tdd/manager.hpp"

namespace qts::tdd {

namespace {

/// Per-call memo: source node -> result edge.
using Memo = FlatCache<const Node*, Edge>;

Edge slice_rec(Manager& mgr, const Node* n, Level var, int value,
               Memo& memo) {
  if (n == nullptr || n->level() > var) return Edge{n, cplx{1.0, 0.0}};
  if (n->level() == var) return n->child(value);
  if (const Edge* hit = memo.find(n)) return *hit;
  const Edge lo = n->low();
  const Edge hi = n->high();
  const Edge r0 = mgr.scale(slice_rec(mgr, lo.node, var, value, memo), lo.weight);
  const Edge r1 = mgr.scale(slice_rec(mgr, hi.node, var, value, memo), hi.weight);
  const Edge result = mgr.make_node(n->level(), r0, r1);
  memo.insert(n, result);
  return result;
}

Edge conj_rec(Manager& mgr, const Node* n, Memo& memo) {
  if (n == nullptr) return Edge{nullptr, cplx{1.0, 0.0}};
  if (const Edge* hit = memo.find(n)) return *hit;
  const Edge lo = n->low();
  const Edge hi = n->high();
  const Edge r0 = mgr.scale(conj_rec(mgr, lo.node, memo), std::conj(lo.weight));
  const Edge r1 = mgr.scale(conj_rec(mgr, hi.node, memo), std::conj(hi.weight));
  const Edge result = mgr.make_node(n->level(), r0, r1);
  memo.insert(n, result);
  return result;
}

Level mapped_level(Level level, std::span<const std::pair<Level, Level>> map) {
  const auto it = std::lower_bound(
      map.begin(), map.end(), level,
      [](const std::pair<Level, Level>& p, Level l) { return p.first < l; });
  if (it != map.end() && it->first == level) return it->second;
  return level;
}

Edge rename_rec(Manager& mgr, const Node* n, std::span<const std::pair<Level, Level>> map,
                Memo& memo) {
  if (n == nullptr) return Edge{nullptr, cplx{1.0, 0.0}};
  if (const Edge* hit = memo.find(n)) return *hit;
  const Edge lo = n->low();
  const Edge hi = n->high();
  const Edge r0 = mgr.scale(rename_rec(mgr, lo.node, map, memo), lo.weight);
  const Edge r1 = mgr.scale(rename_rec(mgr, hi.node, map, memo), hi.weight);
  const Edge result = mgr.make_node(mapped_level(n->level(), map), r0, r1);
  memo.insert(n, result);
  return result;
}

}  // namespace

Edge Manager::slice(const Edge& a, Level var, int value) {
  require(value == 0 || value == 1, "slice value must be 0 or 1");
  if (a.is_zero()) return zero();
  Memo memo;
  return scale(slice_rec(*this, a.node, var, value, memo), a.weight);
}

Edge Manager::conjugate(const Edge& a) {
  if (a.is_zero()) return zero();
  Memo memo;
  return scale(conj_rec(*this, a.node, memo), std::conj(a.weight));
}

Edge Manager::rename(const Edge& a, std::span<const std::pair<Level, Level>> map) {
  for (std::size_t i = 1; i < map.size(); ++i) {
    require(map[i - 1].first < map[i].first && map[i - 1].second < map[i].second,
            "rename: map must be sorted with strictly increasing images");
  }
  if (a.is_zero()) return zero();
  Memo memo;
  return scale(rename_rec(*this, a.node, map, memo), a.weight);
}

}  // namespace qts::tdd
