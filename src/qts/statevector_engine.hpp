/// \file statevector_engine.hpp
/// The first non-TDD image computation backend: dense statevector
/// simulation behind the same ImageComputer seam as the TDD engines.
///
/// The engine lives at the boundary of the two state representations.  Its
/// inputs and outputs are TDD kets/subspaces like every other engine — the
/// FixpointDriver, fallback chains and the CLI never see a difference —
/// but the Kraus×basis work happens densely: frontier kets are decoded once
/// (encode.hpp), every Kraus circuit is applied with sim::apply_circuit
/// (whose apply_gate path handles non-unitary projector gates and global
/// noise factors exactly), a dense Gram-Schmidt pass
/// (sim::BasisSubspace<la::Vector>, run by the shared SeamImage body)
/// reduces the image batch to its residual basis, and only those surviving
/// residuals are re-encoded into TDDs.  The iteration skeleton itself is
/// the shared SeamImage body (seam_engine.hpp); this file only supplies the
/// dense representation policy.
///
/// Spec: "statevector[:maxq]" — maxq is the dense qubit cap (default
/// kDenseQubitCap = 14; 2^n amplitudes are materialised per ket, so wider
/// registers throw ResourceExhausted instead of thrashing — the signal a
/// fallback chain degrades on).  The engine images kets only through
/// image_step: it has no per-ket path, so apply_kraus throws.
///
/// Intended uses (ROADMAP "statevector cross-check backend"): a
/// differential oracle for the TDD engines — see FixpointDriver::set_oracle
/// and `qtsmc --cross-check` — and a fallback when a workload's TDDs blow
/// up while its register stays small.
#pragma once

#include <cstdint>
#include <string>

#include "qts/encode.hpp"
#include "qts/seam_engine.hpp"
#include "sim/statevector.hpp"

namespace qts {

/// Dense representation policy: la::Vector states and the dense ket codec
/// with its explicit qubit cap as the size guard.
struct DenseRep {
  using State = la::Vector;
  static constexpr Resource kGuard = Resource::kQubits;

  std::uint32_t max_qubits = kDenseQubitCap;

  [[nodiscard]] State decode(const tdd::Edge& ket, std::uint32_t n) const {
    return decode_ket(ket, n, max_qubits);
  }
  [[nodiscard]] tdd::Edge encode(tdd::Manager& mgr, const State& state, std::uint32_t n) const {
    return encode_ket(mgr, state, n, max_qubits);
  }
  [[nodiscard]] State apply_circuit(const circ::Circuit& kraus, const State& ket,
                                    const ExecutionContext* ctx) const {
    return sim::apply_circuit(kraus, ket, ctx);
  }
};

class StatevectorImage final : public SeamImage<DenseRep> {
 public:
  explicit StatevectorImage(tdd::Manager& mgr, std::uint32_t max_qubits = kDenseQubitCap,
                            ExecutionContext* ctx = nullptr);

  [[nodiscard]] std::string name() const override { return "statevector"; }
  [[nodiscard]] std::uint32_t max_qubits() const { return rep_.max_qubits; }
};

}  // namespace qts
