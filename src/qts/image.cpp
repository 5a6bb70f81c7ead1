#include "qts/image.hpp"

#include "common/error.hpp"
#include "tn/partition.hpp"

namespace qts {

using tdd::Edge;

std::vector<Edge> ImageComputer::image_step(std::span<const QuantumOperation> ops,
                                            std::span<const Edge> kets, std::uint32_t,
                                            std::size_t* shards_used) {
  ScopedTimer timer(ctx_);
  if (shards_used != nullptr) *shards_used = 1;
  std::size_t kraus_total = 0;
  for (const auto& op : ops) kraus_total += op.kraus.size();
  std::vector<Edge> out;
  out.reserve(kraus_total * kets.size());
  for (const auto& op : ops) {
    for (const auto& kraus : op.kraus) {
      for (const auto& b : kets) out.push_back(apply_kraus(kraus, b));
    }
  }
  return out;
}

Subspace ImageComputer::image_of(std::span<const QuantumOperation> ops, const Subspace& s) {
  // image_step accounts its own time; the ScopedTimer here adds the
  // Gram-Schmidt pass.
  const std::vector<Edge> images = image_step(ops, s.basis(), s.num_qubits(), nullptr);
  ScopedTimer timer(ctx_);
  Subspace out(mgr_, s.num_qubits());
  out.add_states(images);
  tdd::record_peak(ctx_, out.projector());
  return out;
}

Edge ImageComputer::apply_kraus(const circ::Circuit& kraus, const Edge& ket) {
  return apply(prepared(kraus), ket, ctx_);
}

ImageComputer::Prepared ImageComputer::prepare(const circ::Circuit&) {
  throw InvalidArgument("apply_kraus: the '" + name() +
                        "' engine has no per-ket path; it images kets only through "
                        "image_step (or image, image_kets)");
}

const ImageComputer::Prepared& ImageComputer::prepared(const circ::Circuit& kraus) {
  auto it = prepared_.find(&kraus);
  if (it == prepared_.end()) it = prepared_.emplace(&kraus, prepare(kraus)).first;
  return it->second;
}

Edge ImageComputer::apply(const Prepared& prep, const Edge& ket, ExecutionContext* ctx) const {
  ctx->check_deadline();
  // cont(ψ, ϕ) = Σ_i cont(ψ, ϕ_i): each term is pushed independently and
  // the results, each already on the state levels, are accumulated.  push
  // records every step (its last is the unscaled image; scaling adds no
  // node); the loop records each partial sum.
  Edge phi = tn::push(mgr_, ket, prep.terms.front(), prep.push, ctx);
  for (std::size_t i = 1; i < prep.terms.size(); ++i) {
    ctx->check_deadline();
    phi = mgr_.add(phi, tn::push(mgr_, ket, prep.terms[i], prep.push, ctx));
    tdd::record_peak(ctx, phi);
  }
  ++ctx->stats().kraus_applications;
  return phi;
}

std::vector<tdd::Edge> ImageComputer::prepared_roots() const {
  std::vector<tdd::Edge> out;
  for (const auto& entry : prepared_) {
    for (const auto& term : entry.second.terms) {
      for (const auto& t : term) out.push_back(t.edge);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// BasicImage

ImageComputer::Prepared BasicImage::prepare(const circ::Circuit& kraus) {
  const tn::CircuitNetwork net = tn::build_network(mgr_, kraus);
  Prepared out;
  auto& op = out.terms.emplace_back();
  if (!net.tensors.empty()) {
    op.push_back(tn::contract_network(mgr_, net.tensors, net.external_indices(), ctx_,
                                      tn::OrderPolicy::kGreedy));
  }
  out.push = tn::plan_push(net, op, ctx_);
  return out;
}

// ---------------------------------------------------------------------------
// AdditionImage

ImageComputer::Prepared AdditionImage::prepare(const circ::Circuit& kraus) {
  const tn::CircuitNetwork net = tn::build_network(mgr_, kraus);
  Prepared out;
  if (net.tensors.empty()) {
    out.terms.emplace_back();
  } else {
    const auto part = tn::addition_partition(mgr_, net, k_);
    const auto keep = net.external_indices();
    // Slicing removes the same indices in every slice, so all slices share
    // their index sets and one plan serves them all.
    const auto plan =
        tn::plan_order(part.slices.front().tensors, keep, tn::OrderPolicy::kGreedy, ctx_);
    for (const auto& slice : part.slices) {
      ctx_->check_deadline();
      out.terms.push_back({tn::contract_network(mgr_, slice.tensors, keep, ctx_, plan)});
    }
  }
  // A push is always [ket, ϕ_i]: one plan fits every term.
  out.push = tn::plan_push(net, out.terms.front(), ctx_);
  return out;
}

// ---------------------------------------------------------------------------
// ContractionImage

ImageComputer::Prepared ContractionImage::prepare(const circ::Circuit& kraus) {
  const tn::CircuitNetwork net = tn::build_network(mgr_, kraus);
  Prepared out;
  auto& blocks = out.terms.emplace_back();
  if (!net.tensors.empty()) {
    for (const auto& b : tn::contraction_partition(mgr_, net, k1_, k2_, ctx_)) {
      // Gate-free grid cells are the unit tensor 1 with no index: folding
      // them into every push would only add contract calls.
      const bool unit = b.tensor.indices.empty() && b.tensor.edge.is_terminal() &&
                        b.tensor.edge.weight == cplx{1.0, 0.0};
      if (!unit) blocks.push_back(b.tensor);
    }
  }
  out.push = tn::plan_push(net, blocks, ctx_);
  return out;
}

}  // namespace qts
