/// \file image.hpp
/// The paper's three image computation algorithms.
///
/// All three share the outer loop of Algorithm 1: decompose the input
/// subspace into a basis, push every basis state through every Kraus
/// operator, and join the resulting rays.  ImageComputer owns that loop as
/// ONE virtual hook, `image_step`: a family of kets pushed through every
/// Kraus circuit of a span of operations, returned op-major, Kraus-major,
/// ket-minor.  Every entry point — image(op, S), image(sys, S), image_kets,
/// frontier_candidates, and the FixpointDriver's iteration, which calls the
/// hook itself — runs through it, so an engine that changes how the loop
/// runs (the parallel engine shards it, the seam engines run it in a foreign
/// representation, the fallback chain retries it) overrides exactly one
/// function and serves every entry point.
///
/// The three algorithms differ only in how a Kraus circuit is cut before a
/// state is pushed through it.  Each is one `prepare`: a list of terms, each
/// term a list of operator tensors, plus the one push plan (tn::Push) every
/// term replays.  The shared per-ket path `apply` pushes the state through
/// every term and sums the results:
///
///   * BasicImage (§IV-C) pre-contracts the whole circuit into one
///     monolithic operator TDD: one term of one tensor;
///   * AdditionImage (§V-A) slices the k highest-degree indices of the
///     circuit's index graph into 2^k pre-contracted parts ϕᵢ: one term per
///     part, so the sum is cont(ψ, ϕ) = Σᵢ cont(ψ, ϕᵢ);
///   * ContractionImage (§V-B) cuts the circuit into (k1, k2) blocks kept
///     as a tensor network: one term holding the blocks, so the state is
///     contracted through them without ever materialising the monolithic
///     operator.
///
/// The parallel engine is a ContractionImage that shards the step's
/// pushes across worker threads.  Engines that image only through
/// `image_step` (the seam engines, fallback chains) have no per-ket path,
/// and the default `prepare` says so.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/execution_context.hpp"
#include "qts/system.hpp"
#include "tn/contract.hpp"

namespace qts {

/// Common machinery for the three algorithms.  Every computer reports time,
/// peak #node, cache behaviour and deadline state through one
/// ExecutionContext: either an external one passed at construction (shared
/// with a fixpoint loop or a whole pipeline) or a private default.
class ImageComputer {
 public:
  explicit ImageComputer(tdd::Manager& mgr, ExecutionContext* ctx = nullptr)
      : mgr_(mgr), ctx_(ctx != nullptr ? ctx : &own_ctx_) {}
  virtual ~ImageComputer() = default;
  ImageComputer(const ImageComputer&) = delete;
  ImageComputer& operator=(const ImageComputer&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The one image step every entry point runs through: image every ket of
  /// `kets` through every Kraus circuit of every operation in `ops`, and
  /// return the images op-major, Kraus-major, ket-minor.  The span of the
  /// result equals the span of the raw images: an engine may return any
  /// spanning family of them.  Only the seam engines (statevector, sparse)
  /// use that freedom, returning the residual basis they reduced the images
  /// to; every other engine returns the raw images.  `shards_used`, when
  /// non-null, receives the number of shards dispatched (1 when the step ran
  /// undivided on the caller's thread).  The default is the sequential
  /// apply_kraus loop on this computer's manager; engines that shard the
  /// loop or change representation override it.
  virtual std::vector<tdd::Edge> image_step(std::span<const QuantumOperation> ops,
                                            std::span<const tdd::Edge> kets, std::uint32_t n,
                                            std::size_t* shards_used);

  /// T_σ(S): the join of span{E|b⟩} over Kraus operators E and basis kets b.
  Subspace image(const QuantumOperation& op, const Subspace& s) {
    return image_of(std::span(&op, 1), s);
  }

  /// T(S) = ⋁_σ T_σ(S) over every operation of the system.
  Subspace image(const TransitionSystem& sys, const Subspace& s) {
    return image_of(sys.operations, s);
  }

  /// Every image ket of a ket family: the step over every operation of
  /// `sys`.
  std::vector<tdd::Edge> image_kets(const TransitionSystem& sys, std::span<const tdd::Edge> kets,
                                    std::uint32_t n) {
    return image_step(sys.operations, kets, n, nullptr);
  }

  /// The step over every operation of `sys` with its shard count, i.e. what
  /// one FixpointDriver iteration images.  `acc_projector` is ignored: the
  /// accumulator's own Gram-Schmidt pass decides what is new.  Kept, with
  /// this signature, for the benchmark's fixpoint replay.
  std::vector<tdd::Edge> frontier_candidates(const TransitionSystem& sys,
                                             std::span<const tdd::Edge> frontier, std::uint32_t n,
                                             const tdd::Edge& /*acc_projector*/,
                                             std::size_t* shards_used) {
    return image_step(sys.operations, frontier, n, shards_used);
  }

  /// True for engines whose image_step runs the whole frontier body itself:
  /// the parallel engine shards it across workers, and
  /// representation-changing engines (statevector, sparse) cross into their
  /// representation once per step.  Informational: every engine serves
  /// every entry point.
  [[nodiscard]] virtual bool shards_frontier() const { return false; }

  /// One cell of the Kraus×basis loop: `apply` the prepared form of a
  /// single Kraus circuit to a ket, reporting to this computer's context.
  /// The seam engines and fallback chains have no per-ket path and throw
  /// InvalidArgument here.
  tdd::Edge apply_kraus(const circ::Circuit& kraus, const tdd::Edge& ket);

  /// The run-control spine this computer reports through.
  [[nodiscard]] ExecutionContext& context() const { return *ctx_; }

  /// Cooperative wall-clock budget; DeadlineExceeded is thrown when spent.
  void set_deadline(const Deadline& d) { ctx_->set_deadline(d); }

  [[nodiscard]] const RunStats& stats() const { return ctx_->stats(); }
  void reset_stats() { ctx_->reset_stats(); }

  /// Drop cached pre-contracted operators (they key on Circuit addresses,
  /// so call this if a system's circuits are destroyed or mutated).  Virtual
  /// so a fallback chain forwards it to the caches its elements fill.
  virtual void clear_prepared() { prepared_.clear(); }

  /// TDD roots held by the prepared-operator cache.  Long-running fixpoint
  /// loops pass these (plus their own live subspaces) to Manager::gc so the
  /// node pool stays bounded without invalidating cached operators.  Virtual
  /// because a fallback chain must report the caches its elements fill.
  [[nodiscard]] virtual std::vector<tdd::Edge> prepared_roots() const;

  [[nodiscard]] tdd::Manager& manager() const { return mgr_; }

 protected:
  /// A Kraus circuit cut for pushing kets through it: C = Σ over `terms` of
  /// the contraction of the term's operator tensors, every term on the same
  /// index sets, so the one `push` plan serves them all.  A gate-free
  /// circuit is one empty term (the push is the circuit factor alone), and
  /// so is an identity engine's every circuit.
  struct Prepared {
    std::vector<std::vector<tn::Tensor>> terms;
    tn::Push push;
  };

  /// Cut `kraus` into terms.  The default throws InvalidArgument: an engine
  /// that does not override it (the seam engines, fallback chains) images
  /// kets only through image_step.
  virtual Prepared prepare(const circ::Circuit& kraus);

  /// `kraus` prepared on first use, cached on the circuit's address.  The
  /// reference stays valid until clear_prepared.
  const Prepared& prepared(const circ::Circuit& kraus);

  /// The one per-ket path: the (unnormalised) image C|ket⟩ on the canonical
  /// state levels, the sum of the pushes of `ket` through `prep`'s terms,
  /// accounted on `ctx` — deadline poll, peak record, kraus_applications
  /// counter.  It only reads `prep`, so the parallel engine's workers call
  /// it concurrently, each with its own context.
  tdd::Edge apply(const Prepared& prep, const tdd::Edge& ket, ExecutionContext* ctx) const;

  tdd::Manager& mgr_;
  ExecutionContext own_ctx_;
  ExecutionContext* ctx_;

 private:
  /// Both image overloads: one image_step over `ops`, then one Gram-Schmidt
  /// pass over its images.
  Subspace image_of(std::span<const QuantumOperation> ops, const Subspace& s);

  std::unordered_map<const circ::Circuit*, Prepared> prepared_;
};

/// Algorithm 1: monolithic operator TDD per Kraus circuit.
class BasicImage final : public ImageComputer {
 public:
  using ImageComputer::ImageComputer;
  [[nodiscard]] std::string name() const override { return "basic"; }

 protected:
  Prepared prepare(const circ::Circuit& kraus) override;
};

/// §V-A: addition partition with k sliced indices (2^k parts).
class AdditionImage final : public ImageComputer {
 public:
  AdditionImage(tdd::Manager& mgr, std::size_t k, ExecutionContext* ctx = nullptr)
      : ImageComputer(mgr, ctx), k_(k) {}
  [[nodiscard]] std::string name() const override { return "addition"; }
  [[nodiscard]] std::size_t k() const { return k_; }

 protected:
  Prepared prepare(const circ::Circuit& kraus) override;

 private:
  std::size_t k_;
};

/// §V-B: contraction partition with parameters (k1, k2).  Not final: the
/// parallel engine is the (4, 4) partition with its pushes sharded.
class ContractionImage : public ImageComputer {
 public:
  ContractionImage(tdd::Manager& mgr, std::uint32_t k1, std::uint32_t k2,
                   ExecutionContext* ctx = nullptr)
      : ImageComputer(mgr, ctx), k1_(k1), k2_(k2) {}
  [[nodiscard]] std::string name() const override { return "contraction"; }
  [[nodiscard]] std::uint32_t k1() const { return k1_; }
  [[nodiscard]] std::uint32_t k2() const { return k2_; }

 protected:
  Prepared prepare(const circ::Circuit& kraus) override;

 private:
  std::uint32_t k1_;
  std::uint32_t k2_;
};

}  // namespace qts
