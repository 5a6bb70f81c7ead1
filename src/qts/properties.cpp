#include "qts/properties.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qts {

bool overlaps(const Subspace& a, const Subspace& b, double tol) {
  require(a.num_qubits() == b.num_qubits(), "overlaps: subspace width mismatch");
  if (a.dim() == 0 || b.dim() == 0) return false;
  auto& mgr = a.manager();
  // ‖P_b |v⟩‖ > tol for some basis vector of a.
  for (const auto& v : a.basis()) {
    const tdd::Edge proj = b.project(v);
    if (norm(mgr, proj, a.num_qubits()) > tol) return true;
  }
  return false;
}

bool contained_in(const Subspace& a, const Subspace& b, double tol) {
  require(a.num_qubits() == b.num_qubits(), "contained_in: subspace width mismatch");
  for (const auto& v : a.basis()) {
    if (!b.contains(v, tol)) return false;
  }
  return true;
}

EventuallyResult eventually_reaches(ImageComputer& computer, const TransitionSystem& sys,
                                    const Subspace& target, std::size_t max_iterations) {
  sys.validate();
  if (overlaps(sys.initial, target)) return {true, 0, true};
  // Stopping on the first frontier survivor with a component in `target` is
  // stopping on the first overlapping image: target's orthocomplement is a
  // subspace, and every image lies in the span of the accumulator (vetted
  // orthogonal to target) plus the survivors.
  FixpointDriver driver(computer, sys);
  driver.set_max_iterations(max_iterations)
      .set_frontier_predicate([&](const tdd::Edge& survivor) {
        return norm(computer.manager(), target.project(survivor), sys.num_qubits) <= 1e-9;
      })
      .keep_alive(target);
  const FixpointDriver::Result r = driver.run();
  return {r.predicate_violated, r.iterations, r.converged};
}

}  // namespace qts
