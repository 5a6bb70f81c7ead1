#include "tn/order.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>
#include <utility>

#include "common/timer.hpp"

namespace qts::tn {

namespace {

/// Dense bitset over the distinct levels of one planning problem.  Levels
/// are remapped to 0..L-1 once, so set algebra is word-parallel and the
/// planner never touches std::set.
class IndexSet {
 public:
  explicit IndexSet(std::size_t words) : words_(words, 0) {}

  void set(std::size_t bit) { words_[bit >> 6] |= std::uint64_t{1} << (bit & 63); }
  [[nodiscard]] bool test(std::size_t bit) const {
    return (words_[bit >> 6] >> (bit & 63)) & 1u;
  }

  [[nodiscard]] std::uint64_t word(std::size_t i) const { return words_[i]; }

  /// Call f(bit) for every set bit, ascending.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      for (std::uint64_t u = words_[i]; u != 0; u &= u - 1) {
        f(i * 64 + static_cast<std::size_t>(__builtin_ctzll(u)));
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

struct Problem {
  std::vector<tdd::Level> levels;  ///< bit -> level, ascending
  std::size_t words = 1;
  std::vector<IndexSet> tensor;    ///< per input tensor, remapped index set
  IndexSet keep;                   ///< external indices that must survive
  std::vector<std::size_t> uses;   ///< per level: #tensors mentioning it (+1 if kept)

  Problem() : keep(0) {}
};

Problem build_problem(const std::vector<std::vector<tdd::Level>>& index_sets,
                      const std::vector<tdd::Level>& keep) {
  // Deterministic level remap: sorted order of every level that appears.
  Problem p;
  for (const auto& idx : index_sets) p.levels.insert(p.levels.end(), idx.begin(), idx.end());
  p.levels.insert(p.levels.end(), keep.begin(), keep.end());
  std::sort(p.levels.begin(), p.levels.end());
  p.levels.erase(std::unique(p.levels.begin(), p.levels.end()), p.levels.end());
  const auto bit_of = [&p](tdd::Level l) {
    return static_cast<std::size_t>(std::lower_bound(p.levels.begin(), p.levels.end(), l) -
                                    p.levels.begin());
  };

  p.words = std::max<std::size_t>(1, (p.levels.size() + 63) / 64);
  p.keep = IndexSet(p.words);
  p.uses.assign(p.levels.size(), 0);
  p.tensor.reserve(index_sets.size());
  for (const auto& idx : index_sets) {
    IndexSet s(p.words);
    for (const tdd::Level l : idx) {
      const std::size_t bit = bit_of(l);
      s.set(bit);
      p.uses[bit] += 1;
    }
    p.tensor.push_back(std::move(s));
  }
  for (const tdd::Level l : keep) {
    const std::size_t bit = bit_of(l);
    p.keep.set(bit);
    p.uses[bit] += 1;
  }
  return p;
}

/// Compiles one plan: commits merges against the live-use counts, records
/// each step with the levels it sums out, and keeps the cost gauges.
class PlanBuilder {
 public:
  explicit PlanBuilder(const Problem& p) : p_(p), uses_(p.uses) {
    plan_.num_tensors = p.tensor.size();
    plan_.steps.reserve(p.tensor.size());
  }

  /// Merge slots `lhs` and `rhs` (index sets `a` and `b`): retire both
  /// operands from the use counts, sum out every level nobody else
  /// mentions, and return the merged index set, registered as one new user
  /// of each surviving level.
  IndexSet merge(std::size_t lhs, std::size_t rhs, const IndexSet& a, const IndexSet& b) {
    IndexSet result(p_.words);
    PlanStep step{lhs, rhs, {}};
    std::size_t width = 0;
    for (std::size_t i = 0; i < p_.words; ++i) {
      for (std::uint64_t u = a.word(i) | b.word(i); u != 0; u &= u - 1) {
        const std::size_t l = i * 64 + static_cast<std::size_t>(__builtin_ctzll(u));
        uses_[l] -= (a.test(l) ? 1u : 0u) + (b.test(l) ? 1u : 0u);
        if (uses_[l] > 0) {
          result.set(l);
          uses_[l] += 1;
          ++width;
        } else {
          step.sum.push_back(p_.levels[l]);
        }
      }
    }
    plan_.max_width = std::max(plan_.max_width, width);
    plan_.estimated_cost += std::ldexp(1.0, static_cast<int>(std::min<std::size_t>(width, 1022)));
    plan_.steps.push_back(std::move(step));
    return result;
  }

  /// Close the plan on the final slot's index set: whatever it still
  /// carries outside `keep` is the tail summed after the last step (only a
  /// one-tensor network can have one).
  ContractionPlan finish(const IndexSet& last) && {
    last.for_each([this](std::size_t l) {
      if (!p_.keep.test(l)) plan_.tail.push_back(p_.levels[l]);
    });
    return std::move(plan_);
  }

  [[nodiscard]] const std::vector<std::size_t>& uses() const { return uses_; }

 private:
  const Problem& p_;
  std::vector<std::size_t> uses_;  ///< live slots mentioning each level (+1 if kept)
  ContractionPlan plan_;
};

/// The caller-order fold as a compiled SSA plan.
ContractionPlan plan_caller(const Problem& p) {
  PlanBuilder builder(p);
  const std::size_t n = p.tensor.size();
  IndexSet acc = p.tensor[0];
  for (std::size_t i = 1; i < n; ++i) {
    acc = builder.merge(i == 1 ? std::size_t{0} : n + (i - 2), i, acc, p.tensor[i]);
  }
  return std::move(builder).finish(acc);
}

/// A scored merge candidate.  Candidates order by (width, disconnected,
/// anchor_a, anchor_b), where a slot's anchor is the smallest input
/// position it contains.  Anchors are exactly the positions of the
/// textbook O(n^3) scan over a live list in which a merge keeps the lower
/// position, so the heap minimum is that scan's first-best pair.
struct Candidate {
  std::uint32_t width;
  bool disconnected;
  std::uint32_t anchor_a;
  std::uint32_t anchor_b;
  std::uint32_t a;  ///< slot with the lower anchor
  std::uint32_t b;

  bool operator>(const Candidate& o) const {
    return std::tie(width, disconnected, anchor_a, anchor_b) >
           std::tie(o.width, o.disconnected, o.anchor_a, o.anchor_b);
  }
};

/// Min-width greedy: repeatedly merge the live pair with the smallest
/// surviving-index width, preferring pairs that share an index over
/// disconnected ones (an outer product rarely helps), ties towards the
/// lowest anchors.  A pair's width is the number of levels of either
/// operand that some other live slot (or keep) still mentions, which is
/// what PlanBuilder::merge keeps.  Incremental: a merge of A and B lowers
/// the use count only of levels both mention that survive into the merged
/// slot M, and M keeps every such level visible to any other pair, so no
/// other pair's width changes.  Each merge therefore scores only M's
/// pairs; entries naming a merged-away slot are dropped when popped (lazy
/// deletion).  O(n^2 log n) instead of the rescan's O(n^3).  By the same
/// argument a slot's count of shared levels never changes, so scoring a
/// pair only walks the levels it has in common.  Polls the deadline once
/// per merge and once per row of the initial pair scoring.
ContractionPlan plan_greedy(const Problem& p, ExecutionContext* ctx) {
  PlanBuilder builder(p);
  const std::size_t n = p.tensor.size();
  if (n < 2) return std::move(builder).finish(p.tensor[0]);

  struct Slot {
    IndexSet members;      ///< surviving index set of the slot
    std::uint32_t anchor;  ///< smallest input position in the slot
    std::uint32_t shared;  ///< members some other slot or keep mentions
    bool live = true;
  };
  std::vector<Slot> slots;
  slots.reserve(2 * n - 1);
  std::vector<std::size_t> live;
  live.reserve(n);
  const auto add_slot = [&](IndexSet members, std::size_t anchor) {
    std::uint32_t shared = 0;
    members.for_each([&](std::size_t l) { shared += builder.uses()[l] > 1 ? 1 : 0; });
    slots.push_back({std::move(members), static_cast<std::uint32_t>(anchor), shared});
  };
  for (std::size_t i = 0; i < n; ++i) {
    add_slot(p.tensor[i], i);
    live.push_back(i);
  }

  const auto score = [&](std::size_t x, std::size_t y) {
    if (slots[y].anchor < slots[x].anchor) std::swap(x, y);
    const Slot& sx = slots[x];
    const Slot& sy = slots[y];
    // A level only one operand mentions survives iff it is shared; a common
    // level (counted in both `shared`) survives iff a third user remains.
    std::uint32_t common = 0;
    std::uint32_t closed = 0;
    for (std::size_t i = 0; i < p.words; ++i) {
      for (std::uint64_t u = sx.members.word(i) & sy.members.word(i); u != 0; u &= u - 1) {
        ++common;
        const std::size_t l = i * 64 + static_cast<std::size_t>(__builtin_ctzll(u));
        if (builder.uses()[l] == 2) ++closed;
      }
    }
    return Candidate{sx.shared + sy.shared - common - closed, common == 0, sx.anchor, sy.anchor,
                     static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y)};
  };
  // Min-heap of candidates; the initial O(n^2) pairs are heapified at once.
  std::vector<Candidate> heap;
  heap.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    if (ctx != nullptr) ctx->check_deadline();
    for (std::size_t j = i + 1; j < n; ++j) heap.push_back(score(i, j));
  }
  const std::greater<> later;
  std::make_heap(heap.begin(), heap.end(), later);
  const auto pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Candidate c = heap.back();
    heap.pop_back();
    return c;
  };

  while (live.size() > 1) {
    if (ctx != nullptr) ctx->check_deadline();
    Candidate c = pop();
    while (!slots[c.a].live || !slots[c.b].live) c = pop();

    IndexSet merged = builder.merge(c.a, c.b, slots[c.a].members, slots[c.b].members);
    slots[c.a].live = false;
    slots[c.b].live = false;
    std::erase_if(live, [&c](std::size_t s) { return s == c.a || s == c.b; });
    const std::size_t m = slots.size();
    add_slot(std::move(merged), slots[c.a].anchor);
    for (const std::size_t y : live) {
      heap.push_back(score(m, y));
      std::push_heap(heap.begin(), heap.end(), later);
    }
    live.push_back(m);
    // Every live pair has exactly one entry; once stale entries outnumber
    // them, sweep the stale ones out rather than popping each of them.
    if (heap.size() > live.size() * (live.size() - 1)) {
      std::erase_if(heap, [&slots](const Candidate& e) {
        return !slots[e.a].live || !slots[e.b].live;
      });
      std::make_heap(heap.begin(), heap.end(), later);
    }
  }
  return std::move(builder).finish(slots.back().members);
}

}  // namespace

ContractionPlan plan_order_indices(const std::vector<std::vector<tdd::Level>>& index_sets,
                                   const std::vector<tdd::Level>& keep, OrderPolicy policy,
                                   ExecutionContext* ctx) {
  const WallTimer timer;
  ContractionPlan plan;
  if (!index_sets.empty()) {
    const Problem p = build_problem(index_sets, keep);
    plan = policy == OrderPolicy::kGreedy ? plan_greedy(p, ctx) : plan_caller(p);
  }
  if (ctx != nullptr) {
    RunStats& s = ctx->stats();
    s.plans_computed += 1;
    s.plan_seconds += timer.seconds();
    s.plan_max_width = std::max(s.plan_max_width, plan.max_width);
  }
  return plan;
}

ContractionPlan plan_order(const std::vector<Tensor>& tensors,
                           const std::vector<tdd::Level>& keep, OrderPolicy policy,
                           ExecutionContext* ctx) {
  std::vector<std::vector<tdd::Level>> index_sets;
  index_sets.reserve(tensors.size());
  for (const Tensor& t : tensors) index_sets.push_back(t.indices);
  return plan_order_indices(index_sets, keep, policy, ctx);
}

}  // namespace qts::tn
