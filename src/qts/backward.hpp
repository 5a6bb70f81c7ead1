/// \file backward.hpp
/// Backward image (pre-image) computation.  For T with Kraus operators
/// {E_i}, the backward image of a subspace S is span{E_i†|ψ⟩ : |ψ⟩ ∈ S} —
/// the smallest subspace containing every state that T can send into S with
/// non-zero amplitude.  It is the image of S under the adjoint operation,
/// so every forward image algorithm works unchanged.
#pragma once

#include "qts/fixpoint.hpp"
#include "qts/result_cache.hpp"

namespace qts {

/// The adjoint operation T† = {E_i†} (Kraus circuits daggered).
QuantumOperation adjoint_operation(const QuantumOperation& op);

/// The system with every operation adjointed (initial subspace unchanged —
/// callers usually replace it with the target of the backward search).
TransitionSystem adjoint_system(const TransitionSystem& sys);

/// Backward image of S under one operation, using the given computer.
Subspace back_image(ImageComputer& computer, const QuantumOperation& op, const Subspace& s);

/// States that can reach `target` within `max_iterations` steps of the
/// system (backward reachability fixpoint above `target`).
struct BackwardResult {
  Subspace space;
  std::size_t iterations;
  bool converged;
};
/// `oracle`, when non-null, is an engine on its own manager that reruns
/// the backward fixpoint to check it (FixpointDriver::set_oracle).
/// `cache`, when non-null, serves/stores the job through the content-
/// addressed result cache (the key covers the adjointed system, so backward
/// jobs never collide with forward ones).
BackwardResult backward_reachable(ImageComputer& computer, const TransitionSystem& sys,
                                  const Subspace& target, std::size_t max_iterations = 100,
                                  IterationObserver observer = nullptr,
                                  ImageComputer* oracle = nullptr,
                                  ResultCache* cache = nullptr);

}  // namespace qts
