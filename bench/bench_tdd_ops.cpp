/// \file bench_tdd_ops.cpp
/// Micro-benchmarks for the TDD kernel operations (google-benchmark):
/// hash-consed construction, addition, contraction, slicing, conjugation,
/// the Gram-Schmidt primitives (inner product, outer product, projection),
/// the image step's ket push, garbage collection and the node-count walk at
/// several tensor ranks.
#include <benchmark/benchmark.h>

#include "circuit/generators.hpp"
#include "circuit/noise.hpp"
#include "common/prng.hpp"
#include "qts/states.hpp"
#include "qts/subspace.hpp"
#include "tdd/dense.hpp"
#include "tdd/manager.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"
#include "tn/partition.hpp"

namespace {

using namespace qts;
using tdd::Edge;
using tdd::Level;

std::vector<Level> make_indices(std::size_t rank) {
  std::vector<Level> idx;
  for (std::size_t i = 0; i < rank; ++i) idx.push_back(tdd::state_level(static_cast<std::uint32_t>(i)));
  return idx;
}

std::vector<cplx> random_dense(Prng& rng, std::size_t rank) {
  std::vector<cplx> out(std::size_t{1} << rank);
  for (auto& v : out) v = rng.coin(0.25) ? cplx{0.0, 0.0} : rng.complex_unit_box();
  return out;
}

void BM_FromDense(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Prng rng(1);
  const auto idx = make_indices(rank);
  const auto dense = random_dense(rng, rank);
  for (auto _ : state) {
    tdd::Manager mgr;
    benchmark::DoNotOptimize(tdd::from_dense(mgr, dense, idx));
  }
}
BENCHMARK(BM_FromDense)->Arg(6)->Arg(10)->Arg(14);

void BM_Add(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Prng rng(2);
  tdd::Manager mgr;
  const auto idx = make_indices(rank);
  const Edge a = tdd::from_dense(mgr, random_dense(rng, rank), idx);
  const Edge b = tdd::from_dense(mgr, random_dense(rng, rank), idx);
  for (auto _ : state) {
    mgr.clear_caches();
    benchmark::DoNotOptimize(mgr.add(a, b));
  }
}
BENCHMARK(BM_Add)->Arg(6)->Arg(10)->Arg(14);

/// ⟨a|b⟩ of two random kets.  The caches are cleared each iteration (the
/// contraction memo persists across calls), so this times the walk.
void BM_InnerProduct(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Prng rng(3);
  tdd::Manager mgr;
  const auto n = static_cast<std::uint32_t>(rank);
  const Edge a = ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << rank));
  const Edge b = ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << rank));
  for (auto _ : state) {
    mgr.clear_caches();
    benchmark::DoNotOptimize(inner(mgr, a, b, n));
  }
}
BENCHMARK(BM_InnerProduct)->Arg(6)->Arg(10)->Arg(14);

void BM_Slice(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Prng rng(4);
  tdd::Manager mgr;
  const auto idx = make_indices(rank);
  const Edge a = tdd::from_dense(mgr, random_dense(rng, rank), idx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.slice(a, idx[rank / 2], 1));
  }
}
BENCHMARK(BM_Slice)->Arg(6)->Arg(10)->Arg(14);

void BM_Conjugate(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Prng rng(5);
  tdd::Manager mgr;
  const auto idx = make_indices(rank);
  const Edge a = tdd::from_dense(mgr, random_dense(rng, rank), idx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.conjugate(a));
  }
}
BENCHMARK(BM_Conjugate)->Arg(6)->Arg(10)->Arg(14);

/// |a⟩⟨a| of a random ket, caches cleared each iteration as above.
void BM_OuterProduct(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Prng rng(6);
  tdd::Manager mgr;
  const Edge a = ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << n));
  for (auto _ : state) {
    mgr.clear_caches();
    benchmark::DoNotOptimize(outer(mgr, a, a, n));
  }
}
BENCHMARK(BM_OuterProduct)->Arg(4)->Arg(8)->Arg(10);

/// The projection P·|u⟩ of Gram-Schmidt: the projector of a random
/// 4-dimensional subspace applied to a random ket.  The caches are cleared
/// each iteration, so this times the contraction walk, not a memo hit.
void BM_ApplyOperator(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::size_t dim = std::size_t{1} << n;
  Prng rng(8);
  tdd::Manager mgr;
  std::vector<Edge> basis;
  for (int i = 0; i < 4; ++i) basis.push_back(ket_from_dense(mgr, n, rng.unit_vector(dim)));
  const Edge proj = Subspace::from_states(mgr, n, basis).projector();
  const Edge u = ket_from_dense(mgr, n, rng.unit_vector(dim));
  for (auto _ : state) {
    mgr.clear_caches();
    benchmark::DoNotOptimize(apply_operator(mgr, proj, u, n));
  }
}
BENCHMARK(BM_ApplyOperator)->Arg(6)->Arg(10);

/// One Kraus application of the image step: a random 9-qubit ket pushed
/// through one GHZ9 + depolarising Kraus circuit (X on qubit 0, Y on qubit
/// 1) as contraction:4,4 prepares it, (4, 4) blocks and a ket-first push
/// plan.  The caches are cleared each iteration, as in BM_ApplyOperator.
void BM_PushKet(benchmark::State& state) {
  constexpr std::uint32_t n = 9;
  Prng rng(10);
  tdd::Manager mgr;
  std::vector<circ::Circuit> kraus =
      circ::apply_channel({circ::make_ghz(n)}, circ::depolarizing(0.05), 0);
  kraus = circ::apply_channel(kraus, circ::depolarizing(0.05), 1);
  const tn::CircuitNetwork net = tn::build_network(mgr, kraus.at(6));
  std::vector<tn::Tensor> blocks;
  for (const auto& b : tn::contraction_partition(mgr, net, 4, 4)) {
    const bool unit = b.tensor.indices.empty() && b.tensor.edge.is_terminal() &&
                      b.tensor.edge.weight == cplx{1.0, 0.0};
    if (!unit) blocks.push_back(b.tensor);
  }
  const tn::Push push = tn::plan_push(net, blocks, nullptr);
  const Edge ket = ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << n));
  for (auto _ : state) {
    mgr.clear_caches();
    benchmark::DoNotOptimize(tn::push(mgr, ket, blocks, push, nullptr));
  }
}
BENCHMARK(BM_PushKet);

void BM_GcSweep(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Prng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    tdd::Manager mgr;
    const auto idx = make_indices(rank);
    std::vector<Edge> roots;
    for (int i = 0; i < 8; ++i) roots.push_back(tdd::from_dense(mgr, random_dense(rng, rank), idx));
    const std::vector<Edge> keep{roots[0]};
    state.ResumeTiming();
    benchmark::DoNotOptimize(mgr.gc(keep));
  }
}
BENCHMARK(BM_GcSweep)->Arg(10)->Arg(14);

/// node_count, the walk behind every peak-node sample, over the operator
/// TDD of an n-qubit QFT (projector:0) or the projector of a random
/// 16-dimensional subspace of n qubits (projector:1).  Reports nodes walked
/// per second.
void BM_NodeCount(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(1));
  tdd::Manager mgr;
  Edge e;
  if (state.range(0) == 0) {
    const auto net = tn::build_network(mgr, circ::make_qft(n));
    e = tn::contract_network(mgr, net.tensors, net.external_indices()).edge;
  } else {
    Prng rng(9);
    std::vector<Edge> basis;
    for (int i = 0; i < 16; ++i) {
      basis.push_back(ket_from_dense(mgr, n, rng.unit_vector(std::size_t{1} << n)));
    }
    e = Subspace::from_states(mgr, n, basis).projector();
  }
  const std::size_t nodes = tdd::node_count(e);
  for (auto _ : state) benchmark::DoNotOptimize(tdd::node_count(e));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * nodes));
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_NodeCount)
    ->ArgNames({"projector", "n"})
    ->Args({0, 8})
    ->Args({0, 12})
    ->Args({1, 8})
    ->Args({1, 10});

}  // namespace

BENCHMARK_MAIN();
