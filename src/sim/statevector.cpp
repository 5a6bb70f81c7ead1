#include "sim/statevector.hpp"

#include "common/error.hpp"

namespace qts::sim {

la::Vector basis_state(std::uint32_t n, std::uint64_t basis_index) {
  require(n <= 30, "dense simulator limited to 30 qubits");
  return la::Vector::basis(std::size_t{1} << n, basis_index);
}

void apply_gate(la::Vector& state, const circ::Gate& gate, std::uint32_t n,
                const ExecutionContext* ctx) {
  require(state.size() == (std::size_t{1} << n), "state size does not match qubit count");
  require(gate.max_qubit() < n, "gate qubit out of range");

  const auto& targets = gate.targets();
  const std::size_t t = targets.size();
  const std::size_t dim = std::size_t{1} << n;
  const auto& base = gate.base();

  la::Vector out(dim);
  for (std::size_t idx = 0; idx < dim; ++idx) {
    // Cooperative poll: a 2^n sweep at the 30-qubit cap is ~1e9 rows, far
    // too long to be unkillable.  One clock read every 16k rows is noise.
    if (ctx != nullptr && (idx & 0x3FFF) == 0) ctx->check_deadline();
    // Check controls against the *input* index; uncontrolled rows copy over.
    bool fire = true;
    for (const auto& c : gate.controls()) {
      const int bit = qubit_bit(n, idx, c.qubit);
      if ((bit == 1) != c.positive) {
        fire = false;
        break;
      }
    }
    if (!fire) {
      out[idx] += state[idx];
      continue;
    }
    // Row `r` of the base matrix is the current values of the target bits.
    std::size_t r = 0;
    for (std::size_t k = 0; k < t; ++k) r = (r << 1) | qubit_bit(n, idx, targets[k]);
    // out[idx'] += base(r', r) * state[idx] for every r' — we instead gather:
    // out[idx] = sum_r' base(r_out, r') state[idx with targets := r'].
    const std::size_t r_out = r;
    cplx acc{0.0, 0.0};
    for (std::size_t rc = 0; rc < base.cols(); ++rc) {
      if (base(r_out, rc) == cplx{0.0, 0.0}) continue;
      std::size_t src = idx;
      for (std::size_t k = 0; k < t; ++k) {
        const std::size_t shift = n - 1 - targets[k];
        const std::size_t bit = (rc >> (t - 1 - k)) & 1u;
        src = (src & ~(std::size_t{1} << shift)) | (bit << shift);
      }
      acc += base(r_out, rc) * state[src];
    }
    out[idx] += acc;
  }
  state = std::move(out);
}

la::Vector apply_circuit(const circ::Circuit& circuit, const la::Vector& input,
                         const ExecutionContext* ctx) {
  require(input.size() == (std::size_t{1} << circuit.num_qubits()),
          "input size does not match circuit width");
  la::Vector state = input;
  for (const auto& g : circuit.gates()) {
    if (ctx != nullptr) ctx->check_deadline();
    apply_gate(state, g, circuit.num_qubits(), ctx);
  }
  state *= circuit.global_factor();
  return state;
}

}  // namespace qts::sim
