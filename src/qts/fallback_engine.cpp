#include "qts/fallback_engine.hpp"

#include <utility>

#include "common/error.hpp"

namespace qts {

FallbackImage::FallbackImage(tdd::Manager& mgr, std::vector<EngineSpec> chain,
                             ExecutionContext* ctx)
    : ImageComputer(mgr, ctx), chain_(std::move(chain)) {
  require(!chain_.empty(), "fallback engine: the chain needs at least one engine spec");
  engines_.reserve(chain_.size());
  for (const EngineSpec& spec : chain_) {
    require(spec.method != "fallback", "fallback engine: chains cannot nest");
    // Share the chain's effective context (the caller's, or the private
    // default): every element reports into one RunStats and one fault plan.
    engines_.push_back(make_engine(mgr_, spec, &context()));
  }
}

void FallbackImage::advance_or_rethrow(const ResourceExhausted& e) {
  if (active_ + 1 >= engines_.size()) {
    // Chain exhausted: surface a typed failure carrying the whole trail so
    // the caller sees every backend tried and the budget that felled it.
    std::string trail;
    for (const DegradationEvent& ev : events_) {
      trail += ev.from + " (" + to_string(ev.cause) + ") -> ";
    }
    trail += chain_[active_].to_string() + " (" + to_string(e.resource) + ")";
    throw ResourceExhausted(e.resource, "fallback chain exhausted: " + trail +
                                            "; last error: " + e.what());
  }

  DegradationEvent ev;
  ev.from = chain_[active_].to_string();
  ev.to = chain_[active_ + 1].to_string();
  ev.cause = e.resource;
  ev.message = e.what();
  ev.iteration = context().current_iteration();

  RunStats& s = context().stats();
  s.degradations += 1;
  const auto cause = static_cast<std::size_t>(e.resource);
  if (cause < s.degradation_causes.size()) s.degradation_causes[cause] += 1;

  // The fallen engine's prepared operators are dead weight from here on;
  // dropping them lets the driver's next GC reclaim their nodes (they key
  // on circuit addresses, so this is safe mid-run).
  engines_[active_]->clear_prepared();
  ++active_;

  events_.push_back(ev);
  if (observer_) observer_(events_.back());
}

template <typename Fn>
auto FallbackImage::with_fallback(Fn&& fn) -> decltype(fn()) {
  for (;;) {
    try {
      return fn();
    } catch (const ResourceExhausted& e) {
      // Only budget exhaustion degrades.  InvalidArgument, InternalError
      // and DeadlineExceeded fall through to the caller unchanged.
      advance_or_rethrow(e);
    }
  }
}

std::vector<tdd::Edge> FallbackImage::image_step(std::span<const QuantumOperation> ops,
                                                 std::span<const tdd::Edge> kets,
                                                 std::uint32_t n, std::size_t* shards_used) {
  return with_fallback([&] { return active().image_step(ops, kets, n, shards_used); });
}

void FallbackImage::clear_prepared() {
  for (const auto& eng : engines_) eng->clear_prepared();
}

std::vector<tdd::Edge> FallbackImage::prepared_roots() const {
  std::vector<tdd::Edge> roots;
  for (const auto& eng : engines_) {
    const std::vector<tdd::Edge> r = eng->prepared_roots();
    roots.insert(roots.end(), r.begin(), r.end());
  }
  return roots;
}

}  // namespace qts
