#include "qts/fixpoint.hpp"

#include <string>

#include "common/error.hpp"
#include "tdd/audit.hpp"

namespace qts {

using tdd::Edge;

FixpointDriver::FixpointDriver(ImageComputer& computer, const TransitionSystem& sys)
    : computer_(computer), sys_(sys) {}

FixpointDriver& FixpointDriver::set_max_iterations(std::size_t n) {
  max_iterations_ = n;
  return *this;
}

FixpointDriver& FixpointDriver::set_frontier_predicate(
    std::function<bool(const tdd::Edge&)> predicate) {
  predicate_ = std::move(predicate);
  return *this;
}

FixpointDriver& FixpointDriver::set_observer(IterationObserver observer) {
  observer_ = std::move(observer);
  return *this;
}

FixpointDriver& FixpointDriver::set_oracle(ImageComputer& oracle) {
  require(&oracle.manager() != &computer_.manager(),
          "cross-check oracle must be built on its own manager, not the primary engine's");
  oracle_ = &oracle;
  return *this;
}

FixpointDriver& FixpointDriver::keep_alive(const Subspace& subspace) {
  extra_roots_.push_back(&subspace);
  return *this;
}

std::vector<Edge> FixpointDriver::gather_roots(const Subspace& acc,
                                               const std::vector<Edge>& frontier) const {
  std::vector<Edge> roots = computer_.prepared_roots();
  auto keep_subspace = [&roots](const Subspace& s) {
    roots.push_back(s.projector());
    roots.insert(roots.end(), s.basis().begin(), s.basis().end());
  };
  keep_subspace(sys_.initial);
  keep_subspace(acc);
  roots.insert(roots.end(), frontier.begin(), frontier.end());
  for (const Subspace* s : extra_roots_) keep_subspace(*s);
  return roots;
}

namespace {

[[noreturn]] void diverged(const std::string& what, std::size_t iteration, std::size_t primary,
                           std::size_t oracle) {
  throw InternalError("cross-check divergence at iteration " + std::to_string(iteration) +
                      ": primary " + what + " = " + std::to_string(primary) + ", oracle " +
                      what + " = " + std::to_string(oracle));
}

}  // namespace

FixpointDriver::Result FixpointDriver::run() {
  Result r = iterate();
  if (oracle_ != nullptr) cross_check(r);
  return r;
}

void FixpointDriver::cross_check(const Result& primary) {
  ImageComputer& oracle = *oracle_;
  // The oracle's prepared operators key on the addresses of `sys`'s
  // circuits, which die with it.
  struct ClearPrepared {
    ImageComputer& engine;
    ~ClearPrepared() { engine.clear_prepared(); }
  } clear{oracle};
  tdd::Manager& mgr = oracle.manager();
  const TransitionSystem sys{sys_.num_qubits, sys_.initial.copy_to(mgr), sys_.operations};
  FixpointDriver check(oracle, sys);
  check.set_max_iterations(primary.iterations);
  const Result checked = check.run();

  // The oracle stops before the primary's iteration count only on an
  // iteration whose survivors or dimension differ from the primary's.
  const std::vector<IterationStats>& theirs = check.history();
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    const IterationStats& a = history_[i];
    const IterationStats& b = theirs[i];
    if (a.frontier_dim != b.frontier_dim) {
      diverged("frontier dim", a.iteration, a.frontier_dim, b.frontier_dim);
    }
    if (a.survivors != b.survivors) diverged("survivors", a.iteration, a.survivors, b.survivors);
    if (a.acc_dim != b.acc_dim) diverged("accumulated dim", a.iteration, a.acc_dim, b.acc_dim);
  }
  // Equal dimensions alone would accept two same-sized but different spans.
  if (!checked.space.same_subspace(primary.space.copy_to(mgr))) {
    throw InternalError(
        "cross-check divergence: final accumulated subspaces differ in span (primary '" +
        computer_.name() + "' vs oracle '" + oracle.name() + "')");
  }
}

FixpointDriver::Result FixpointDriver::iterate() {
  sys_.validate();
  history_.clear();
  ExecutionContext& ctx = computer_.context();
  const std::uint32_t n = sys_.num_qubits;

  Subspace acc = sys_.initial;
  // The frontier is a bare orthonormal ket family, not a Subspace: nothing
  // ever projects onto it, so maintaining its projector TDD (one outer
  // product and operator-sized add per survivor) would be pure overhead in
  // the hot loop.
  std::vector<Edge> frontier = sys_.initial.basis();

  std::size_t iters = 0;
  const std::size_t full_dim_cap =
      n >= 20 ? ~std::size_t{0} : (std::size_t{1} << n);
  gc_baseline_ = computer_.manager().live_nodes();

  while (iters < max_iterations_ && acc.dim() < full_dim_cap) {
    ++iters;
    // Announce the (1-based) iteration before any polling so
    // iteration-triggered injected faults fire inside the iteration they
    // name, and a fallback chain records its switches against it.
    ctx.begin_iteration(iters);
    ctx.check_deadline();

    // Top of an iteration = quiescent point of the (shared) manager: no
    // workers are running, so collecting here is safe for every engine.
    // Growth-rate trigger: collect once the pool has grown past `growth`
    // times its level after the previous collection.  The floor keeps small
    // workloads (and short tests) collection-free.
    const std::size_t live = computer_.manager().live_nodes();
    const bool collect = ctx.adaptive_gc() && live >= ctx.adaptive_gc_floor() &&
                         static_cast<double>(live) >=
                             ctx.adaptive_gc_growth() * static_cast<double>(gc_baseline_);
    if (collect) {
      computer_.manager().gc(gather_roots(acc, frontier));
      gc_baseline_ = computer_.manager().live_nodes();
    }
    // Structural audit (set_audit_every): after every collection, and every
    // k-th iteration regardless — both at this same quiescent point, before
    // any worker starts.  One audit per iteration even when both fire.
    if (const std::size_t k = ctx.audit_every(); k != 0 && (collect || iters % k == 0)) {
      tdd::audit_or_throw(computer_.manager(), gather_roots(acc, frontier), &ctx.stats());
    }

    IterationStats it;
    it.iteration = iters;
    it.frontier_dim = frontier.size();
    it.live_nodes = live;
    it.gc = collect;

    // Imaging only the frontier is sound because T(A ∨ B) = T(A) ∨ T(B)
    // (Proposition 1) and previously imaged vectors add nothing new.  The
    // step ends in the single authoritative Gram-Schmidt pass of add_states:
    // at most one orthogonalisation per candidate (scalar multiples of an
    // earlier candidate are skipped by node), whose surviving residuals are
    // the next frontier.
    const std::vector<Edge> candidates =
        computer_.image_step(sys_.operations, frontier, n, &it.shards);
    it.candidates = candidates.size();
    std::vector<Edge> survivors = acc.add_states(candidates);
    tdd::record_peak(&ctx, acc.projector());

    it.survivors = survivors.size();
    it.acc_dim = acc.dim();

    RunStats& s = ctx.stats();
    s.fixpoint_iterations += 1;
    s.frontier_kets += it.frontier_dim;
    s.frontier_shards += it.shards;
    s.frontier_candidates += it.candidates;
    s.frontier_survivors += it.survivors;
    if (it.frontier_dim > s.max_frontier_dim) s.max_frontier_dim = it.frontier_dim;
    history_.push_back(it);
    if (observer_) observer_(it);

    if (predicate_) {
      for (const Edge& v : survivors) {
        if (!predicate_(v)) {
          return {std::move(acc), iters, true, true};
        }
      }
    }
    if (survivors.empty()) {
      return {std::move(acc), iters, true, false};
    }
    frontier = std::move(survivors);
  }
  const bool saturated = acc.dim() >= full_dim_cap;
  return {std::move(acc), iters, saturated, false};
}

}  // namespace qts
