#include "tn/circuit_tensors.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tdd/dense.hpp"

namespace qts::tn {

namespace {

using tdd::Edge;
using tdd::Level;

/// Indicator tensor of one control wire: value 1 iff the control fires.
Edge control_literal(tdd::Manager& mgr, Level level, bool positive) {
  return positive ? mgr.literal(level, cplx{0.0, 0.0}, cplx{1.0, 0.0})
                  : mgr.literal(level, cplx{1.0, 0.0}, cplx{0.0, 0.0});
}

/// δ(in, out) on one wire: the identity's tensor.
Edge delta_tensor(tdd::Manager& mgr, Level in, Level out) {
  require(in < out, "delta expects in-level above out-level");
  const Edge pick0 = mgr.literal(out, cplx{1.0, 0.0}, cplx{0.0, 0.0});
  const Edge pick1 = mgr.literal(out, cplx{0.0, 0.0}, cplx{1.0, 0.0});
  return mgr.make_node(in, pick0, pick1);
}

/// Dense tensor of the (possibly shifted-by-identity) base matrix over the
/// given sorted index list.  `bit_of` maps (sorted-index position) to the
/// corresponding bit inside (row, col) of the matrix.
struct IndexBit {
  bool is_row;       // row (output) bit vs column (input) bit
  std::size_t shift;  // bit position within the row/col number (MSB first)
};

Edge matrix_tensor(tdd::Manager& mgr, const la::Matrix& m,
                   const std::vector<Level>& sorted_indices,
                   const std::vector<IndexBit>& bits, bool subtract_identity) {
  const std::size_t rank = sorted_indices.size();
  std::vector<cplx> dense(std::size_t{1} << rank);
  for (std::size_t a = 0; a < dense.size(); ++a) {
    std::size_t row = 0;
    std::size_t col = 0;
    for (std::size_t i = 0; i < rank; ++i) {
      const std::size_t bit = (a >> (rank - 1 - i)) & 1u;
      if (bits[i].is_row) {
        row |= bit << bits[i].shift;
      } else {
        col |= bit << bits[i].shift;
      }
    }
    cplx v = m(row, col);
    if (subtract_identity && row == col) v -= cplx{1.0, 0.0};
    dense[a] = v;
  }
  return tdd::from_dense(mgr, dense, sorted_indices);
}

}  // namespace

std::vector<Level> CircuitNetwork::external_indices() const {
  std::vector<Level> ext = inputs;
  ext.insert(ext.end(), outputs.begin(), outputs.end());
  std::sort(ext.begin(), ext.end());
  ext.erase(std::unique(ext.begin(), ext.end()), ext.end());
  return ext;
}

Tensor gate_tensor(tdd::Manager& mgr, const circ::Gate& gate,
                   std::vector<std::uint64_t>& wire_pos, const NetworkOptions& opts) {
  const auto& targets = gate.targets();
  const std::size_t t = targets.size();
  const bool diag = gate.diagonal() && opts.reuse_indices;

  // Collect (level, role) pairs for the target block.  Roles encode which
  // bit of the base matrix's row/column number the index drives; targets[0]
  // is the most significant bit of both.
  struct LevelRole {
    Level level;
    IndexBit bit;
  };
  std::vector<LevelRole> roles;
  for (std::size_t k = 0; k < t; ++k) {
    const std::uint32_t q = targets[k];
    const std::size_t shift = t - 1 - k;
    if (diag) {
      // One reused index drives both row and column; we expose it as the
      // column bit (row == column on the diagonal).
      roles.push_back({tdd::wire_level(q, wire_pos[q]), {false, shift}});
    } else {
      roles.push_back({tdd::wire_level(q, wire_pos[q]), {false, shift}});      // input
      roles.push_back({tdd::wire_level(q, wire_pos[q] + 1), {true, shift}});   // output
      wire_pos[q] += 1;
    }
  }
  std::sort(roles.begin(), roles.end(),
            [](const LevelRole& a, const LevelRole& b) { return a.level < b.level; });

  std::vector<Level> target_levels;
  std::vector<IndexBit> target_bits;
  for (const auto& r : roles) {
    target_levels.push_back(r.level);
    target_bits.push_back(r.bit);
  }

  // Diagonal matrices are addressed by the column number only (each exposed
  // entry IS a diagonal entry, so a U−I shift subtracts 1 everywhere).
  const bool need_diff = !gate.controls().empty();
  la::Matrix base = gate.base();
  la::Matrix diff_base = base;
  if (diag) {
    la::Matrix d(base.rows(), base.cols());
    la::Matrix dd(base.rows(), base.cols());
    for (std::size_t i = 0; i < base.rows(); ++i) {
      for (std::size_t j = 0; j < base.cols(); ++j) {
        d(i, j) = base(j, j);
        dd(i, j) = base(j, j) - cplx{1.0, 0.0};
      }
    }
    base = std::move(d);  // d(row, col) = base(col, col); row bits unused
    diff_base = std::move(dd);
  }

  Edge result;
  std::vector<Level> all_levels = target_levels;

  if (!need_diff) {
    result = matrix_tensor(mgr, base, target_levels, target_bits, false);
  } else {
    // Controlled gate: passthrough + (∏ control indicators) ⊗ (U − I).
    // With index reuse a control is one literal on its shared index; without
    // it the control wire carries (in, out) indices, the indicator becomes a
    // product of two literals and the passthrough needs δ(in, out).
    Edge diff = matrix_tensor(mgr, diff_base, target_levels, target_bits, !diag);
    Edge ctrl = mgr.one();
    Edge ctrl_pass = mgr.one();
    for (const auto& c : gate.controls()) {
      if (opts.reuse_indices) {
        const Level cl = tdd::wire_level(c.qubit, wire_pos[c.qubit]);
        all_levels.push_back(cl);
        ctrl = mgr.contract(ctrl, control_literal(mgr, cl, c.positive), {});
      } else {
        const Level in = tdd::wire_level(c.qubit, wire_pos[c.qubit]);
        const Level out = tdd::wire_level(c.qubit, wire_pos[c.qubit] + 1);
        wire_pos[c.qubit] += 1;
        all_levels.push_back(in);
        all_levels.push_back(out);
        ctrl = mgr.contract(ctrl, control_literal(mgr, in, c.positive), {});
        ctrl = mgr.contract(ctrl, control_literal(mgr, out, c.positive), {});
        ctrl_pass = mgr.contract(ctrl_pass, delta_tensor(mgr, in, out), {});
      }
    }
    Edge passthrough = ctrl_pass;
    if (!diag) {
      for (std::size_t k = 0; k < t; ++k) {
        const std::uint32_t q = targets[k];
        // wire_pos[q] was already advanced past the target's fresh output;
        // with reuse off it may have advanced further for control wires on
        // the same call, but targets and controls never share a qubit.
        passthrough = mgr.contract(
            passthrough,
            delta_tensor(mgr, tdd::wire_level(q, wire_pos[q] - 1), tdd::wire_level(q, wire_pos[q])),
            {});
      }
    }
    result = mgr.add(passthrough, mgr.contract(ctrl, diff, {}));
  }

  std::sort(all_levels.begin(), all_levels.end());
  return Tensor{result, std::move(all_levels)};
}

CircuitNetwork build_network(tdd::Manager& mgr, const circ::Circuit& circuit,
                             const NetworkOptions& opts) {
  CircuitNetwork net;
  net.num_qubits = circuit.num_qubits();
  net.factor = circuit.global_factor();
  std::vector<std::uint64_t> wire_pos(circuit.num_qubits(), 0);
  net.tensors.reserve(circuit.size());
  net.home_qubits.reserve(circuit.size());
  for (const auto& g : circuit.gates()) {
    net.tensors.push_back(gate_tensor(mgr, g, wire_pos, opts));
    net.home_qubits.push_back(g.targets().front());
  }
  net.inputs.reserve(circuit.num_qubits());
  net.outputs.reserve(circuit.num_qubits());
  for (std::uint32_t q = 0; q < circuit.num_qubits(); ++q) {
    net.inputs.push_back(tdd::state_level(q));
    net.outputs.push_back(tdd::wire_level(q, wire_pos[q]));
  }
  return net;
}

}  // namespace qts::tn
