/// \file sparse_engine.hpp
/// The second non-TDD backend behind the representation seam: sparse
/// amplitude-map simulation (sim/sparse_state.hpp) driving the same
/// ImageComputer interface as every other engine.
///
/// Where the statevector engine decodes frontier kets to 2^n dense
/// amplitudes — and therefore hard-caps the register width — this engine
/// crosses the seam through the sparse codec (encode.hpp): only the TDD's
/// non-zero paths are walked, gate application touches only populated basis
/// states and their images, and the sparse Gram-Schmidt mirror
/// (sim::BasisSubspace<sim::SparseState>, run by the shared SeamImage body)
/// reduces each image batch to its residual basis.
/// The guard is therefore a NON-ZERO-COUNT budget, not a qubit count: a
/// 60-qubit basis-state-dominated workload (noisy walks, GHZ-style
/// preparation) runs fine, while a dense superposition refuses loudly when
/// its support outgrows the budget.  The iteration skeleton itself is the
/// shared SeamImage body (seam_engine.hpp); this file only supplies the
/// sparse representation policy.
///
/// Spec: "sparse[:maxnz]" — maxnz is the per-ket non-zero budget (default
/// kSparseNonzeroCap = 65536).  The spec is also accepted by
/// `qtsmc --cross-check sparse`.  Like the dense engine it images kets only
/// through image_step: apply_kraus throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "qts/encode.hpp"
#include "qts/seam_engine.hpp"
#include "sim/sparse_state.hpp"

namespace qts {

/// Sparse representation policy: amplitude-map states and the
/// non-zero-path codec with the per-ket non-zero budget as the size
/// guard — enforced on every image so a densifying workload refuses with
/// an actionable message instead of silently thrashing.
struct SparseRep {
  using State = sim::SparseState;
  static constexpr Resource kGuard = Resource::kNonzeros;

  std::size_t max_nonzeros = kSparseNonzeroCap;

  [[nodiscard]] State decode(const tdd::Edge& ket, std::uint32_t n) const {
    return decode_ket_sparse(ket, n, max_nonzeros);
  }
  [[nodiscard]] tdd::Edge encode(tdd::Manager& mgr, const State& state, std::uint32_t) const {
    return encode_ket_sparse(mgr, state, max_nonzeros);
  }
  [[nodiscard]] State apply_circuit(const circ::Circuit& kraus, const State& ket,
                                    const ExecutionContext* ctx) const;

  /// Throws ResourceExhausted(kNonzeros) when an image outgrows the budget.
  void check_budget(const State& state) const;
};

class SparseImage final : public SeamImage<SparseRep> {
 public:
  explicit SparseImage(tdd::Manager& mgr, std::size_t max_nonzeros = kSparseNonzeroCap,
                       ExecutionContext* ctx = nullptr);

  [[nodiscard]] std::string name() const override { return "sparse"; }
  [[nodiscard]] std::size_t max_nonzeros() const { return rep_.max_nonzeros; }
};

}  // namespace qts
