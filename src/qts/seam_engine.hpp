/// \file seam_engine.hpp
/// The shared engine body of the state-representation seam.
///
/// Every non-TDD backend (dense statevector, sparse amplitude map, and the
/// ROADMAP's next candidates) runs the *same* image step — decode the kets
/// once, image them through every Kraus circuit in the foreign
/// representation, reduce the batch to its residual basis there and
/// re-encode only the survivors — and differs only in how states are
/// stored and crossed over.  SeamImage<Rep> owns that step once, as its
/// ImageComputer::image_step override, so image(op, S), image_kets and the
/// FixpointDriver's frontier step all cross the seam the same way.  The
/// image batch is reduced by sim::BasisSubspace<State>
/// (sim/basis_subspace.hpp), the one Gram-Schmidt mirror every
/// representation shares.  A representation policy supplies
/// the remaining points of variation:
///
///   struct Rep {
///     using State = ...;              // the foreign ket representation
///     static constexpr Resource kGuard = ...;  // the budgeted resource
///     State decode(const tdd::Edge&, std::uint32_t n) const;
///     tdd::Edge encode(tdd::Manager&, const State&, std::uint32_t n) const;
///     State apply_circuit(const circ::Circuit&, const State&,
///                         const ExecutionContext*) const;
///   };
///
/// The policy also owns the representation's size guard (dense qubit cap,
/// sparse non-zero budget) and enforces it inside decode/encode/apply by
/// throwing ResourceExhausted(kGuard) — the skeleton never needs to know
/// which resource is being budgeted, and `kGuard` is also what the codec
/// fault probes report so injected qubit/non-zero faults fire only in the
/// matching representation.  The ExecutionContext handed to the apply hooks
/// lets the sim kernels poll the deadline mid-sweep.  There is no per-ket
/// path: a seam engine images kets only through image_step, so apply_kraus
/// throws InvalidArgument.  A new backend is a policy struct plus a name,
/// not a re-implementation of the image step that could silently drift
/// from its siblings.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "qts/image.hpp"
#include "sim/basis_subspace.hpp"

namespace qts {

template <class Rep>
class SeamImage : public ImageComputer {
 public:
  SeamImage(tdd::Manager& mgr, Rep rep, ExecutionContext* ctx)
      : ImageComputer(mgr, ctx), rep_(std::move(rep)) {}

  /// Representation-changing engines run whole frontier bodies: each
  /// frontier ket crosses the seam exactly once per step instead of once
  /// per Kraus application.
  [[nodiscard]] bool shards_frontier() const override { return true; }

  /// The image step in the foreign representation: decode the kets once,
  /// apply every Kraus circuit of every operation in the step's order
  /// (op-major, Kraus-major, ket-minor), run one Gram-Schmidt pass over the
  /// image batch over there (span(residuals) = span(images)) and re-encode
  /// only the residuals.  Reports one "shard" — the whole step ran on the
  /// caller's thread.
  std::vector<tdd::Edge> image_step(std::span<const QuantumOperation> ops,
                                    std::span<const tdd::Edge> kets, std::uint32_t n,
                                    std::size_t* shards_used) override {
    ScopedTimer timer(ctx_);
    if (shards_used != nullptr) *shards_used = kets.empty() ? 0 : 1;
    if (kets.empty()) return {};

    std::vector<typename Rep::State> decoded;
    decoded.reserve(kets.size());
    for (const auto& b : kets) {
      ctx_->fault_codec(Rep::kGuard);
      decoded.push_back(rep_.decode(b, n));
    }

    sim::BasisSubspace<typename Rep::State> batch(n);
    std::vector<typename Rep::State> residuals;
    for (const auto& op : ops) {
      ctx_->check_deadline();
      std::vector<typename Rep::State> images;
      images.reserve(op.kraus.size() * decoded.size());
      for (const auto& kraus : op.kraus) {
        for (const auto& ket : decoded) images.push_back(rep_.apply_circuit(kraus, ket, ctx_));
      }
      ctx_->stats().kraus_applications += images.size();
      std::vector<typename Rep::State> fresh = batch.add_states(images);
      residuals.insert(residuals.end(), std::make_move_iterator(fresh.begin()),
                       std::make_move_iterator(fresh.end()));
    }

    // Re-encode only the survivors.
    std::vector<tdd::Edge> out;
    out.reserve(residuals.size());
    for (const auto& r : residuals) {
      ctx_->check_deadline();
      ctx_->fault_codec(Rep::kGuard);
      const tdd::Edge phi = rep_.encode(mgr_, r, n);
      tdd::record_peak(ctx_, phi);
      out.push_back(phi);
    }
    return out;
  }

 protected:
  Rep rep_;
};

}  // namespace qts
