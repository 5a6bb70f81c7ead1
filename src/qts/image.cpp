#include "qts/image.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qts {

using tdd::Edge;
using tdd::Level;

std::vector<Edge> ImageComputer::image_step(std::span<const QuantumOperation> ops,
                                            std::span<const Edge> kets, std::uint32_t n,
                                            std::size_t* shards_used) {
  ScopedTimer timer(ctx_);
  if (shards_used != nullptr) *shards_used = 1;
  std::size_t kraus_total = 0;
  for (const auto& op : ops) kraus_total += op.kraus.size();
  std::vector<Edge> out;
  out.reserve(kraus_total * kets.size());
  for (const auto& op : ops) {
    for (const auto& kraus : op.kraus) {
      for (const auto& b : kets) out.push_back(apply_kraus(kraus, b, n));
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
  for (const Edge& phi : images) {
    out.add_state(phi);
    tdd::record_peak(ctx_, out.projector());
  }
  return out;
}

Edge ImageComputer::apply_kraus(const circ::Circuit& kraus, const Edge& ket,
                                std::uint32_t num_qubits) {
  ctx_->check_deadline();
  const Edge phi = apply(prepared_for(kraus), ket, num_qubits);
  tdd::record_peak(ctx_, phi);
  ++ctx_->stats().kraus_applications;
  return phi;
}

void ImageComputer::no_per_ket_path() const {
  throw InvalidArgument("apply_kraus: the '" + name() +
                        "' engine has no per-ket path; it images kets only through "
                        "image_step (or image, image_kets)");
}

std::vector<tdd::Edge> ImageComputer::prepared_roots() const {
  std::vector<tdd::Edge> out;
  for (const auto& [circuit, prep] : prepared_) {
    (void)circuit;
    prep->collect_roots(out);
  }
  return out;
}

const ImageComputer::Prepared& ImageComputer::prepared_for(const circ::Circuit& kraus) {
  auto it = prepared_.find(&kraus);
  if (it == prepared_.end()) {
    it = prepared_.emplace(&kraus, prepare(kraus)).first;
  }
  return *it->second;
}

ImageComputer::PushPlan ImageComputer::make_push_plan(const tn::CircuitNetwork& net,
                                                      std::span<const tn::Tensor> ops) {
  PushPlan push;
  push.rename = tn::output_to_state_map(net);
  if (!ops.empty()) {
    std::vector<Level> keep = net.outputs;
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    std::vector<std::vector<Level>> index_sets;
    index_sets.reserve(ops.size() + 1);
    index_sets.push_back(state_levels(net.num_qubits));
    for (const auto& t : ops) index_sets.push_back(t.indices);
    push.plan = tn::plan_order_indices(index_sets, keep, tn::OrderPolicy::kCaller, ctx_);
  }
  return push;
}

Edge ImageComputer::push_through(const tn::CircuitNetwork& net, std::span<const tn::Tensor> ops,
                                 const Edge& ket, const PushPlan& push) {
  const Edge result =
      ops.empty() ? ket
                  : mgr_.rename(tn::contract_planned(mgr_, ket, ops, push.plan, ctx_), push.rename);
  return mgr_.scale(result, net.factor);
}

// ---------------------------------------------------------------------------
// BasicImage

struct BasicImage::Mono : ImageComputer::Prepared {
  tn::CircuitNetwork net;  // tensors cleared after pre-contraction
  std::vector<tn::Tensor> op;
  ImageComputer::PushPlan push;

  void collect_roots(std::vector<tdd::Edge>& out) const override {
    for (const auto& t : op) out.push_back(t.edge);
  }
};

std::unique_ptr<ImageComputer::Prepared> BasicImage::prepare(const circ::Circuit& kraus) {
  auto mono = std::make_unique<Mono>();
  mono->net = tn::build_network(mgr_, kraus);
  if (!mono->net.tensors.empty()) {
    const auto keep = mono->net.external_indices();
    mono->op.push_back(
        tn::contract_network(mgr_, mono->net.tensors, keep, ctx_, tn::OrderPolicy::kGreedy));
  }
  mono->push = make_push_plan(mono->net, mono->op);
  mono->net.tensors.clear();
  return mono;
}

Edge BasicImage::apply(const Prepared& prep, const Edge& ket, std::uint32_t) {
  const auto& mono = static_cast<const Mono&>(prep);
  return push_through(mono.net, mono.op, ket, mono.push);
}

// ---------------------------------------------------------------------------
// AdditionImage

struct AdditionImage::Parts : ImageComputer::Prepared {
  tn::CircuitNetwork net;
  std::vector<tn::Tensor> parts;  // each = one pre-contracted slice ϕ_i
  ImageComputer::PushPlan push;   // a push is always [ket, ϕ_i]: one plan fits all

  void collect_roots(std::vector<tdd::Edge>& out) const override {
    for (const auto& t : parts) out.push_back(t.edge);
  }
};

std::unique_ptr<ImageComputer::Prepared> AdditionImage::prepare(const circ::Circuit& kraus) {
  auto out = std::make_unique<Parts>();
  out->net = tn::build_network(mgr_, kraus);
  if (!out->net.tensors.empty()) {
    const auto part = tn::addition_partition(mgr_, out->net, k_);
    const auto keep = out->net.external_indices();
    // Slicing removes the same indices in every slice, so all slices share
    // their index sets and one plan serves them all.
    const auto plan =
        tn::plan_order(part.slices.front().tensors, keep, tn::OrderPolicy::kGreedy, ctx_);
    for (const auto& slice : part.slices) {
      ctx_->check_deadline();
      out->parts.push_back(tn::contract_network(mgr_, slice.tensors, keep, ctx_, plan));
    }
  }
  out->push = make_push_plan(out->net, std::span(out->parts).first(out->parts.empty() ? 0 : 1));
  out->net.tensors.clear();
  return out;
}

Edge AdditionImage::apply(const Prepared& prep, const Edge& ket, std::uint32_t) {
  const auto& pp = static_cast<const Parts&>(prep);
  if (pp.parts.empty()) return push_through(pp.net, {}, ket, pp.push);
  // cont(ψ, ϕ) = Σ_i cont(ψ, ϕ_i): each slice is contracted with the state
  // independently and the (already renamed) results are accumulated.
  Edge acc = mgr_.zero();
  for (const auto& part : pp.parts) {
    ctx_->check_deadline();
    const Edge contribution = push_through(pp.net, std::span(&part, 1), ket, pp.push);
    acc = mgr_.add(acc, contribution);
    tdd::record_peak(ctx_, acc);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// ContractionImage

struct ContractionImage::Blocks : ImageComputer::Prepared {
  tn::CircuitNetwork net;
  std::vector<tn::Tensor> blocks;  // (window, group)-ordered, unit blocks dropped
  ImageComputer::PushPlan push;

  void collect_roots(std::vector<tdd::Edge>& out) const override {
    for (const auto& t : blocks) out.push_back(t.edge);
  }
};

std::unique_ptr<ImageComputer::Prepared> ContractionImage::prepare(const circ::Circuit& kraus) {
  auto out = std::make_unique<Blocks>();
  out->net = tn::build_network(mgr_, kraus);
  if (!out->net.tensors.empty()) {
    const auto blocks = tn::contraction_partition(mgr_, out->net, k1_, k2_, ctx_);
    for (const auto& b : blocks) {
      // Gate-free grid cells are the unit tensor 1 with no index: folding
      // them into every push would only add contract calls.
      const bool unit = b.tensor.indices.empty() && b.tensor.edge.is_terminal() &&
                        b.tensor.edge.weight == cplx{1.0, 0.0};
      if (!unit) out->blocks.push_back(b.tensor);
    }
  }
  out->push = make_push_plan(out->net, out->blocks);
  out->net.tensors.clear();
  return out;
}

Edge ContractionImage::apply(const Prepared& prep, const Edge& ket, std::uint32_t) {
  const auto& bb = static_cast<const Blocks&>(prep);
  return push_through(bb.net, bb.blocks, ket, bb.push);
}

}  // namespace qts
