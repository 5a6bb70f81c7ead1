#include "sim/sparse_state.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qts::sim {

SparseState::SparseState(std::uint32_t n) : n_(n) {
  require(n >= 1 && n <= 64, "sparse state needs 1..64 qubits (64-bit basis indices)");
}

SparseState SparseState::basis(std::uint32_t n, std::uint64_t basis_index) {
  SparseState s(n);
  require(n >= 64 || basis_index < (std::uint64_t{1} << n), "basis index out of range");
  s.amps_.emplace(basis_index, cplx{1.0, 0.0});
  return s;
}

cplx SparseState::amplitude(std::uint64_t basis_index) const {
  const auto it = amps_.find(basis_index);
  return it == amps_.end() ? cplx{0.0, 0.0} : it->second;
}

void SparseState::set(std::uint64_t basis_index, const cplx& amp) {
  require(n_ >= 64 || basis_index < (std::uint64_t{1} << n_), "basis index out of range");
  if (amp == cplx{0.0, 0.0}) {
    amps_.erase(basis_index);
  } else {
    amps_[basis_index] = amp;
  }
}

void SparseState::axpy(const cplx& coeff, const SparseState& other) {
  require(other.n_ == n_, "axpy requires states of the same width");
  if (coeff == cplx{0.0, 0.0}) return;
  for (const auto& [idx, amp] : other.amps_) amps_[idx] += coeff * amp;
}

SparseState& SparseState::operator*=(const cplx& scalar) {
  if (scalar == cplx{0.0, 0.0}) {
    amps_.clear();
    return *this;
  }
  for (auto& [idx, amp] : amps_) amp *= scalar;
  return *this;
}

cplx SparseState::dot(const SparseState& other) const {
  require(other.n_ == n_, "inner product requires states of the same width");
  // Iterate the smaller support, probe the larger.
  const SparseState& small = nonzeros() <= other.nonzeros() ? *this : other;
  const SparseState& large = nonzeros() <= other.nonzeros() ? other : *this;
  const bool this_is_small = &small == this;
  cplx acc{0.0, 0.0};
  for (const auto& [idx, amp] : small.amps_) {
    const auto it = large.amps_.find(idx);
    if (it == large.amps_.end()) continue;
    acc += this_is_small ? std::conj(amp) * it->second : std::conj(it->second) * amp;
  }
  return acc;
}

double SparseState::norm() const {
  double acc = 0.0;
  for (const auto& [idx, amp] : amps_) acc += std::norm(amp);
  return std::sqrt(acc);
}

void SparseState::prune(double eps) {
  double max_mag = 0.0;
  for (const auto& [idx, amp] : amps_) max_mag = std::max(max_mag, std::abs(amp));
  const double cutoff = eps * max_mag;
  for (auto it = amps_.begin(); it != amps_.end();) {
    it = std::abs(it->second) <= cutoff ? amps_.erase(it) : std::next(it);
  }
}

SparseState apply_gate(const SparseState& state, const circ::Gate& gate, std::uint32_t n,
                       const ExecutionContext* ctx) {
  require(state.num_qubits() == n, "state width does not match qubit count");
  require(gate.max_qubit() < n, "gate qubit out of range");

  const auto& targets = gate.targets();
  const std::size_t t = targets.size();
  const auto& base = gate.base();

  // Scatter: every populated input index contributes to at most base.rows()
  // output indices, so the work is O(nnz · 2^t) regardless of n.
  SparseState out(n);
  SparseState::Map scattered;
  std::size_t polled = 0;
  for (const auto& [idx, amp] : state.amplitudes()) {
    // Cooperative poll: the support can reach the non-zero budget (2^16 by
    // default), so a sweep over it polls the deadline like the dense kernel.
    if (ctx != nullptr && (polled++ & 0x3FFF) == 0) ctx->check_deadline();
    bool fire = true;
    for (const auto& c : gate.controls()) {
      const int bit = static_cast<int>((idx >> (n - 1 - c.qubit)) & 1u);
      if ((bit == 1) != c.positive) {
        fire = false;
        break;
      }
    }
    if (!fire) {
      scattered[idx] += amp;
      continue;
    }
    // Column `rc` of the base matrix is the current values of the target
    // bits; the entry scatters to every row with a non-zero matrix element.
    std::size_t rc = 0;
    for (std::size_t k = 0; k < t; ++k) {
      rc = (rc << 1) | ((idx >> (n - 1 - targets[k])) & 1u);
    }
    for (std::size_t r = 0; r < base.rows(); ++r) {
      const cplx w = base(r, rc);
      if (w == cplx{0.0, 0.0}) continue;
      std::uint64_t dst = idx;
      for (std::size_t k = 0; k < t; ++k) {
        const std::uint32_t shift = n - 1 - targets[k];
        const std::uint64_t bit = (r >> (t - 1 - k)) & 1u;
        dst = (dst & ~(std::uint64_t{1} << shift)) | (bit << shift);
      }
      scattered[dst] += w * amp;
    }
  }
  for (const auto& [idx, amp] : scattered) {
    if (amp != cplx{0.0, 0.0}) out.set(idx, amp);
  }
  return out;
}

SparseState apply_circuit(const circ::Circuit& circuit, const SparseState& input,
                          const ExecutionContext* ctx) {
  require(input.num_qubits() == circuit.num_qubits(),
          "input width does not match circuit width");
  SparseState state = input;
  for (const auto& g : circuit.gates()) {
    if (ctx != nullptr) ctx->check_deadline();
    state = apply_gate(state, g, circuit.num_qubits(), ctx);
  }
  state *= circuit.global_factor();
  state.prune();
  return state;
}

}  // namespace qts::sim
