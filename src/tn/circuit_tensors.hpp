/// \file circuit_tensors.hpp
/// Translation of a quantum circuit into a tensor network of TDDs, following
/// §II-B and §V-A of the paper:
///   * every non-diagonal gate application introduces a fresh output index on
///     each target wire;
///   * diagonal gates and control wires REUSE the input index as the output
///     index, creating the hyperedges the addition partitioner exploits;
///   * the j-th index on qubit q is the level wire_level(q, j).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "tn/tensor.hpp"

namespace qts::tn {

/// Knobs for the circuit → tensor-network translation.
struct NetworkOptions {
  /// §V-A's hyperedge rule: reuse the input index as the output index for
  /// diagonal gates and control wires.  Disabling it gives every gate
  /// fresh output indices on every touched wire — the naive encoding — and
  /// exists for the ablation study of that design choice.
  bool reuse_indices = true;
};

/// Tensor-network view of a circuit.
struct CircuitNetwork {
  std::uint32_t num_qubits = 0;
  std::vector<Tensor> tensors;      ///< one per gate, in circuit order
  std::vector<std::uint32_t> home_qubits;  ///< first target qubit per gate —
                                           ///< the wire the gate's "body" sits
                                           ///< on, used by the (k1,k2) cutter
  std::vector<tdd::Level> inputs;   ///< wire_level(q, 0) for each qubit
  std::vector<tdd::Level> outputs;  ///< final index of each wire (may equal
                                    ///< the input if the wire is only ever a
                                    ///< control / diagonal target)
  cplx factor{1.0, 0.0};            ///< the circuit's global scalar factor

  /// Sorted union of inputs and outputs — the network's external indices.
  [[nodiscard]] std::vector<tdd::Level> external_indices() const;
};

/// Build the TDD tensor of a single gate.  `wire_pos` is the running
/// position counter per qubit and is advanced for every wire that gets a
/// fresh output index.
Tensor gate_tensor(tdd::Manager& mgr, const circ::Gate& gate,
                   std::vector<std::uint64_t>& wire_pos, const NetworkOptions& opts = {});

/// Build the full network for a circuit.
CircuitNetwork build_network(tdd::Manager& mgr, const circ::Circuit& circuit,
                             const NetworkOptions& opts = {});

}  // namespace qts::tn
