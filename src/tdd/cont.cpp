#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "tdd/manager.hpp"

namespace qts::tdd {

namespace {

/// Weight-1 view of a node's child under `var = value` (see manager.cpp).
Edge slice_top(const Node* n, Level var, int value) {
  if (n == nullptr || n->level() > var) return Edge{n, cplx{1.0, 0.0}};
  return n->child(value);
}

}  // namespace

Edge Manager::contract(const Edge& a, const Edge& b, std::span<const Level> gamma) {
  if (a.is_zero() || b.is_zero()) return zero();
  for (std::size_t i = 1; i < gamma.size(); ++i) {
    require(gamma[i - 1] < gamma[i], "contract: gamma must be sorted and duplicate-free");
  }
  // Weights factor straight out of a multilinear contraction; the cache then
  // only ever sees weight-1 operands.  The cache itself is call-local but its
  // chunks and index are recycled through the thread slot's scratch slot:
  // moving it out (instead of borrowing a reference) keeps re-entrant
  // contract calls — and a future work-stealing scheduler — safe.  clear()
  // is O(1); a call that outgrew kContKeepChunks gives the excess back.
  ThreadSlot& sl = slot();
  ContCache cache = std::move(sl.cont_scratch_);
  cache.clear();
  Edge r = cont_rec(sl, a.node, b.node, gamma, 0, cache);
  if (cache.chunks() > kContKeepChunks) cache.trim(kContKeepChunks);
  sl.cont_scratch_ = std::move(cache);
  return scale(r, a.weight * b.weight);
}

Edge Manager::cont_rec(ThreadSlot& sl, const Node* a, const Node* b, std::span<const Level> gamma,
                       std::size_t pos, ContCache& cache) {
  if (a == nullptr && b == nullptr) {
    // Both operands are constant 1.  Every gamma variable still pending is
    // summed over {0,1} with a constant integrand, contributing a factor 2.
    const auto remaining = static_cast<int>(gamma.size() - pos);
    return terminal(cplx{std::ldexp(1.0, remaining), 0.0});
  }

  const ContKey key{a, b, pos};
  if (const Edge* hit = cache.find(key)) {
    if (RunStats* st = sl.stats()) ++st->cont_hits;
    return *hit;
  }
  if (RunStats* st = sl.stats()) ++st->cont_misses;
  sl.tick();

  const Level la = (a == nullptr) ? kTermLevel : a->level();
  const Level lb = (b == nullptr) ? kTermLevel : b->level();
  const Level lg = (pos < gamma.size()) ? gamma[pos] : kTermLevel;
  Level x = la < lb ? la : lb;
  if (lg < x) x = lg;

  const bool summed = (x == lg);
  const std::size_t next = summed ? pos + 1 : pos;

  const Edge a0 = slice_top(a, x, 0);
  const Edge a1 = slice_top(a, x, 1);
  const Edge b0 = slice_top(b, x, 0);
  const Edge b1 = slice_top(b, x, 1);

  const Edge r0 = scale(cont_rec(sl, a0.node, b0.node, gamma, next, cache), a0.weight * b0.weight);
  const Edge r1 = scale(cont_rec(sl, a1.node, b1.node, gamma, next, cache), a1.weight * b1.weight);

  const Edge result = summed ? add(r0, r1) : make_node(x, r0, r1);
  cache.insert(key, result);
  return result;
}

}  // namespace qts::tdd
