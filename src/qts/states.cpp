#include "qts/states.hpp"

#include <cmath>

#include "common/error.hpp"
#include "tdd/flat_table.hpp"

namespace qts {

using tdd::Edge;
using tdd::Level;

std::vector<Level> state_levels(std::uint32_t n) {
  std::vector<Level> out;
  out.reserve(n);
  for (std::uint32_t q = 0; q < n; ++q) out.push_back(tdd::state_level(q));
  return out;
}

std::vector<Level> bra_levels(std::uint32_t n) {
  std::vector<Level> out;
  out.reserve(n);
  for (std::uint32_t q = 0; q < n; ++q) out.push_back(tdd::bra_level(q));
  return out;
}

std::vector<Level> operator_levels(std::uint32_t n) {
  std::vector<Level> out;
  out.reserve(2 * static_cast<std::size_t>(n));
  for (std::uint32_t q = 0; q < n; ++q) {
    out.push_back(tdd::state_level(q));
    out.push_back(tdd::bra_level(q));
  }
  return out;
}

Edge ket_basis(tdd::Manager& mgr, std::uint32_t n, std::uint64_t basis_index) {
  require(n >= 1, "ket_basis needs at least one qubit");
  // For n > 64 the index is LSB-aligned: qubits above the 64-bit range are
  // |0⟩, so |0...0⟩ and small walk positions work at any register width.
  require(n >= 64 || basis_index < (std::uint64_t{1} << n), "basis index out of range");
  Edge e = mgr.one();
  for (std::uint32_t q = n; q-- > 0;) {
    const std::uint32_t shift = n - 1 - q;
    const int bit = shift >= 64 ? 0 : static_cast<int>((basis_index >> shift) & 1u);
    e = (bit == 0) ? mgr.make_node(tdd::state_level(q), e, mgr.zero())
                   : mgr.make_node(tdd::state_level(q), mgr.zero(), e);
  }
  return e;
}

Edge ket_product(tdd::Manager& mgr, std::span<const std::array<cplx, 2>> amps) {
  require(!amps.empty(), "ket_product needs at least one qubit");
  // Keep the running edge at unit magnitude and re-apply the accumulated
  // scale once at the end: the product of per-qubit amplitudes can reach
  // 2^{-n/2}, far below the manager's node-level tolerance, and must never
  // appear as a raw child weight (see the Manager invariants).
  Edge e = mgr.one();
  double acc = 1.0;
  for (std::size_t qi = amps.size(); qi-- > 0;) {
    const auto q = static_cast<std::uint32_t>(qi);
    const double mag = std::abs(e.weight);
    if (e.is_zero() || mag == 0.0) return mgr.zero();
    acc *= mag;
    const Edge unit{e.node, e.weight / mag};
    e = mgr.make_node(tdd::state_level(q), mgr.scale(unit, amps[qi][0]),
                      mgr.scale(unit, amps[qi][1]));
  }
  return mgr.scale(e, cplx{acc, 0.0});
}

Edge ket_from_dense(tdd::Manager& mgr, std::uint32_t n, std::span<const cplx> amps) {
  const auto levels = state_levels(n);
  return tdd::from_dense(mgr, amps, levels);
}

std::vector<cplx> ket_to_dense(const Edge& ket, std::uint32_t n) {
  const auto levels = state_levels(n);
  return tdd::to_dense(ket, levels);
}

cplx inner(tdd::Manager& mgr, const Edge& a, const Edge& b, std::uint32_t n) {
  const auto levels = state_levels(n);
  const Edge r = mgr.contract(a, b, levels, tdd::OperandView::kConjLeft);
  require(r.is_terminal(), "inner product did not reduce to a scalar");
  return r.weight;
}

double norm(tdd::Manager& mgr, const Edge& ket, std::uint32_t n) {
  return std::sqrt(std::max(0.0, inner(mgr, ket, ket, n).real()));
}

Edge outer(tdd::Manager& mgr, const Edge& a, const Edge& b, std::uint32_t /*n*/) {
  return mgr.contract(a, b, {}, tdd::OperandView::kConjRight | tdd::OperandView::kBraRight);
}

Edge apply_operator(tdd::Manager& mgr, const Edge& op, const Edge& ket, std::uint32_t n) {
  return mgr.contract(op, ket, bra_levels(n), tdd::OperandView::kBraRight);
}

namespace {

/// Σ_x ⟨x|op|x⟩ as one walk down the diagonal: at each qubit the bra branch
/// follows the ket branch, and a qubit the diagram skips contributes a
/// factor 2.  memo_ holds, per node, the trace of its unit-weight tensor over
/// the qubits from its own to n-1, so each node is visited once.
class DiagonalTrace {
 public:
  explicit DiagonalTrace(std::uint32_t n) : n_(n) {}

  /// Trace of `e` over qubits q..n-1.
  cplx of(const Edge& e, std::uint32_t q) {
    if (e.is_zero()) return cplx{0.0, 0.0};
    if (e.is_terminal()) return e.weight * std::ldexp(1.0, static_cast<int>(n_ - q));
    const Level level = e.node->level();
    const std::uint32_t p = tdd::level_qubit(level);
    require(p >= q && p < n_ && (level == tdd::state_level(p) || level == tdd::bra_level(p)),
            "trace did not reduce to a scalar");
    return e.weight * std::ldexp(1.0, static_cast<int>(p - q)) * of_node(e.node, p);
  }

 private:
  cplx of_node(const tdd::Node* node, std::uint32_t p) {
    if (const cplx* hit = memo_.find(node)) return *hit;
    const Edge self{node, cplx{1.0, 0.0}};
    cplx sum{0.0, 0.0};
    for (int bit = 0; bit < 2; ++bit) {
      const Edge row = node->level() == tdd::state_level(p) ? node->child(bit) : self;
      if (row.node != nullptr && row.node->level() == tdd::bra_level(p)) {
        sum += row.weight * of(row.node->child(bit), p + 1);
      } else {
        sum += of(row, p + 1);
      }
    }
    memo_.insert(node, sum);
    return sum;
  }

  std::uint32_t n_;
  tdd::FlatCache<const tdd::Node*, cplx> memo_;
};

}  // namespace

cplx operator_trace(tdd::Manager& /*mgr*/, const Edge& op, std::uint32_t n) {
  return DiagonalTrace(n).of(op, 0);
}

Edge identity_operator(tdd::Manager& mgr, std::uint32_t n) {
  Edge acc = mgr.one();
  for (std::uint32_t q = n; q-- > 0;) {
    const Edge pick0 = mgr.literal(tdd::bra_level(q), cplx{1.0, 0.0}, cplx{0.0, 0.0});
    const Edge pick1 = mgr.literal(tdd::bra_level(q), cplx{0.0, 0.0}, cplx{1.0, 0.0});
    const Edge dq = mgr.make_node(tdd::state_level(q), pick0, pick1);
    acc = mgr.contract(acc, dq, {});
  }
  return acc;
}

la::Matrix operator_to_dense(const Edge& op, std::uint32_t n) {
  require(n <= 13, "operator_to_dense limited to 13 qubits");
  const auto levels = operator_levels(n);
  const auto flat = tdd::to_dense(op, levels);
  const std::size_t dim = std::size_t{1} << n;
  la::Matrix m(dim, dim);
  for (std::size_t a = 0; a < flat.size(); ++a) {
    // Assignment bit order is [ket0, bra0, ket1, bra1, ...], MSB first.
    std::size_t row = 0;
    std::size_t col = 0;
    for (std::uint32_t q = 0; q < n; ++q) {
      const std::size_t kbit = (a >> (2 * (n - q) - 1)) & 1u;
      const std::size_t bbit = (a >> (2 * (n - q) - 2)) & 1u;
      row = (row << 1) | kbit;
      col = (col << 1) | bbit;
    }
    m(row, col) = flat[a];
  }
  return m;
}

Edge operator_from_dense(tdd::Manager& mgr, const la::Matrix& m, std::uint32_t n) {
  require(m.rows() == m.cols() && m.rows() == (std::size_t{1} << n),
          "matrix size must be 2^n x 2^n");
  const auto levels = operator_levels(n);
  std::vector<cplx> flat(std::size_t{1} << (2 * n));
  for (std::size_t a = 0; a < flat.size(); ++a) {
    std::size_t row = 0;
    std::size_t col = 0;
    for (std::uint32_t q = 0; q < n; ++q) {
      const std::size_t kbit = (a >> (2 * (n - q) - 1)) & 1u;
      const std::size_t bbit = (a >> (2 * (n - q) - 2)) & 1u;
      row = (row << 1) | kbit;
      col = (col << 1) | bbit;
    }
    flat[a] = m(row, col);
  }
  return tdd::from_dense(mgr, flat, levels);
}

}  // namespace qts
