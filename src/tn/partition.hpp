/// \file partition.hpp
/// The paper's two partition schemes (§V).
///
/// *Addition partition* slices the k highest-degree indices of the index
/// graph.  Each of the 2^k slices fixes those indices in every gate tensor
/// that mentions them and adds an indicator literal per sliced index, so the
/// sum of the slices reconstructs the original network exactly — including
/// the case where a sliced index is an external (input/output) wire.
///
/// *Contraction partition* cuts the circuit into blocks spanning at most k1
/// qubit wires, inserting a vertical cut each time k2 horizontally-cut
/// multi-qubit gates have accumulated.  The blocks are pre-contracted into
/// small TDDs; their network contracts back to the full circuit tensor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/execution_context.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"

namespace qts::tn {

/// One slice of an addition partition: the assignment of the sliced indices
/// plus the (still un-contracted) tensor list for that slice.
struct AdditionSlice {
  std::vector<int> assignment;  // parallel to AdditionPartition::sliced
  std::vector<Tensor> tensors;
};

struct AdditionPartition {
  std::vector<tdd::Level> sliced;     ///< the k chosen indices (by level)
  std::vector<AdditionSlice> slices;  ///< 2^k slices
};

/// Most indices an addition partition slices (2^20 slices).
inline constexpr std::size_t kMaxSlicedIndices = 20;

/// Slice the k highest-degree indices of the network's index graph
/// (k <= kMaxSlicedIndices).
AdditionPartition addition_partition(tdd::Manager& mgr, const CircuitNetwork& net,
                                     std::size_t k);

/// One pre-contracted block of a contraction partition.
struct Block {
  std::uint32_t group = 0;   ///< horizontal band index (qubits [g·k1, …))
  std::uint32_t window = 0;  ///< vertical time-window index
  Tensor tensor;
};

/// Cut the network into blocks per the (k1, k2) rule and pre-contract each
/// block in circuit order, keeping exactly the indices visible outside the
/// block.  The blocks are returned ordered by (window, group) — the paper's
/// contraction order for image computation.  Every grid cell is a block;
/// cells holding no gate are the index-less unit tensor.  `ctx` may be
/// null.
std::vector<Block> contraction_partition(tdd::Manager& mgr, const CircuitNetwork& net,
                                         std::uint32_t k1, std::uint32_t k2,
                                         ExecutionContext* ctx = nullptr);

}  // namespace qts::tn
