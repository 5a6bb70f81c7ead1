#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "tdd/manager.hpp"

namespace qts::tdd {

namespace {

/// The level at which the walk reads `n`: its own, or under the bra view the
/// bra level of its qubit (`n` is then on a state level).
template <bool Bra>
Level view_level(const Node* n) {
  if (n == nullptr) return kTermLevel;
  return Bra ? bra_level(level_qubit(n->level())) : n->level();
}

/// Weight-1 view of a node's child under `var = value`, the node read at
/// `level`; Conj conjugates the child's weight.
template <bool Conj>
Edge slice_top(const Node* n, Level level, Level var, int value) {
  if (n == nullptr || level > var) return Edge{n, cplx{1.0, 0.0}};
  const Edge& c = n->child(value);
  return Conj ? Edge{c.node, std::conj(c.weight)} : c;
}

}  // namespace

Edge Manager::contract(const Edge& a, const Edge& b, std::span<const Level> gamma) {
  return contract(a, b, gamma, OperandView::kPlain);
}

Edge Manager::contract(const Edge& a, const Edge& b, std::span<const Level> gamma,
                       OperandView view) {
  if (a.is_zero() || b.is_zero()) return zero();
  for (std::size_t i = 1; i < gamma.size(); ++i) {
    require(gamma[i - 1] < gamma[i], "contract: gamma must be sorted and duplicate-free");
  }
  require(!has(view, OperandView::kBraRight) || b.is_terminal() || level_pos(b.top_level()) == 0,
          "contract: the bra view needs a right operand over state levels");
  // Weights factor straight out of a multilinear contraction; the cache then
  // only ever sees weight-1 operands.  A cont_rec result depends on its
  // operands and on the gamma suffix still to be summed out, so the cache
  // names that suffix by an interned id: gamma[pos..] is {gamma[pos], id of
  // gamma[pos+1..]}, interned back to front in O(|gamma|).  Entries then stay
  // valid across calls and gammas, and the ids until gc() / clear_caches()
  // release the cache and the suffix table together.  The cache is a lossy
  // ComputedTable: it bounds itself by overwriting on collision, so no call
  // empties it.  cont_rec never re-enters contract(), so it may borrow the
  // slot's cache and id vector in place.  The view is a template argument of
  // cont_rec and part of every cache key: one instantiation per combination
  // of the three operand flags, and one for kStateOut, which takes no other
  // flag.  Its relabel is a pure function of the level, so its entries need
  // no map id.
  ThreadSlot& sl = slot();
  std::vector<std::uint32_t>& ids = sl.suffix_ids_;
  ids.resize(gamma.size() + 1);
  ids[gamma.size()] = 0;
  for (std::size_t i = gamma.size(); i-- > 0;) {
    const SuffixKey key{gamma[i], ids[i + 1]};
    if (const std::uint32_t* id = sl.suffixes_.find(key)) {
      ids[i] = *id;
    } else {
      ids[i] = static_cast<std::uint32_t>(sl.suffixes_.size() + 1);
      sl.suffixes_.insert(key, ids[i]);
    }
  }
  using Rec = Edge (Manager::*)(ThreadSlot&, const Node*, const Node*, std::span<const Level>,
                                std::size_t);
  static constexpr auto kRec = []<std::size_t... V>(std::index_sequence<V...>) {
    return std::array<Rec, sizeof...(V)>{&Manager::cont_rec<static_cast<OperandView>(V)>...};
  }(std::make_index_sequence<8>{});
  const Edge r =
      view == OperandView::kStateOut
          ? cont_rec<OperandView::kStateOut>(sl, a.node, b.node, gamma, 0)
          : (this->*kRec.at(static_cast<std::uint8_t>(view)))(sl, a.node, b.node, gamma, 0);
  const cplx wa = has(view, OperandView::kConjLeft) ? std::conj(a.weight) : a.weight;
  const cplx wb = has(view, OperandView::kConjRight) ? std::conj(b.weight) : b.weight;
  return scale(r, wa * wb);
}

template <OperandView View>
Edge Manager::cont_rec(ThreadSlot& sl, const Node* a, const Node* b, std::span<const Level> gamma,
                       std::size_t pos) {
  constexpr bool kConjA = has(View, OperandView::kConjLeft);
  constexpr bool kConjB = has(View, OperandView::kConjRight);
  constexpr bool kBraB = has(View, OperandView::kBraRight);
  if (a == nullptr && b == nullptr) {
    // Both operands are constant 1.  Every gamma variable still pending is
    // summed over {0,1} with a constant integrand, contributing a factor 2.
    const auto remaining = static_cast<int>(gamma.size() - pos);
    return terminal(cplx{std::ldexp(1.0, remaining), 0.0});
  }

  const ContKey key{a, b, sl.suffix_ids_[pos], View};
  if (const Edge* hit = sl.cont_cache_.find(key)) {
    if (RunStats* st = sl.stats()) ++st->cont_hits;
    return *hit;
  }
  if (RunStats* st = sl.stats()) ++st->cont_misses;
  sl.tick();

  const Level la = view_level<false>(a);
  const Level lb = view_level<kBraB>(b);
  const Level lg = (pos < gamma.size()) ? gamma[pos] : kTermLevel;
  Level x = la < lb ? la : lb;
  if (lg < x) x = lg;

  const bool summed = (x == lg);
  const std::size_t next = summed ? pos + 1 : pos;

  const Edge a0 = slice_top<kConjA>(a, la, x, 0);
  const Edge a1 = slice_top<kConjA>(a, la, x, 1);
  const Edge b0 = slice_top<kConjB>(b, lb, x, 0);
  const Edge b1 = slice_top<kConjB>(b, lb, x, 1);

  // A branch with a zero factor is zero.  It must not recurse: cont_rec
  // reads the zero edge's null node as the constant 1, so it would walk the
  // other factor's whole subtree only to scale the result by 0.
  const auto branch = [&](const Edge& fa, const Edge& fb) {
    if (fa.is_zero() || fb.is_zero()) return zero();
    return scale(cont_rec<View>(sl, fa.node, fb.node, gamma, next), fa.weight * fb.weight);
  };
  const Edge r0 = branch(a0, b0);
  const Edge r1 = branch(a1, b1);

  constexpr bool kStateOut = View == OperandView::kStateOut;
  const Edge result =
      summed ? add(r0, r1) : make_node(kStateOut ? state_level(level_qubit(x)) : x, r0, r1);
  sl.cont_cache_.insert(key, result);
  return result;
}

}  // namespace qts::tdd
