/// \file complex.hpp
/// Tolerance-aware complex arithmetic used throughout the TDD package.
///
/// Canonicity of decision diagrams over floating-point weights requires a
/// consistent notion of approximate equality *and* a hash function that is
/// compatible with it.  We follow the usual DD-package approach: complex
/// numbers are bucketed onto a grid of width `kEps` before hashing, and
/// equality is a componentwise comparison with the same tolerance.
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <string>

namespace qts {

using cplx = std::complex<double>;

/// Grid width for approximate equality / bucketed hashing of weights.
inline constexpr double kEps = 1e-10;

/// Shared subspace tolerances.  Every state representation (TDD
/// qts::Subspace, dense sim::BasisSubspace<la::Vector>, sparse
/// sim::BasisSubspace<sim::SparseState>) draws the same three lines, so
/// membership verdicts cannot disagree near a threshold:
///   * a ket with norm at or below `kZeroNormTol` is the zero vector,
///   * a squared Gram-Schmidt residual at or below `kResidualTol2` is
///     "already in the subspace" (states are unit-scale at that point, so
///     the absolute threshold is meaningful),
///   * membership tests compare the residual norm against `kMembershipTol`.
inline constexpr double kZeroNormTol = 1e-12;
inline constexpr double kResidualTol2 = 1e-14;
inline constexpr double kMembershipTol = 1e-7;

/// Approximate equality for doubles.
inline bool approx_equal(double a, double b, double eps = kEps) { return std::abs(a - b) <= eps; }

/// Componentwise approximate equality with tolerance `kEps`.
inline bool approx_equal(const cplx& a, const cplx& b, double eps = kEps) {
  return approx_equal(a.real(), b.real(), eps) && approx_equal(a.imag(), b.imag(), eps);
}

/// True if `a` is within `kEps` of zero (both components).
inline bool approx_zero(const cplx& a, double eps = kEps) {
  return approx_equal(a, cplx{0.0, 0.0}, eps);
}

/// True if `a` is within `kEps` of one.
inline bool approx_one(const cplx& a, double eps = kEps) {
  return approx_equal(a, cplx{1.0, 0.0}, eps);
}

/// `x` rounded to the nearest integer, halves away from zero, as a double:
/// the value std::llround gives wherever that fits in a long long, but
/// exact at every magnitude instead of overflowing past 2^63.  +0.0 for
/// every zero result, so -0.0 and 0.0 share a bucket.
inline double round_half_away(double x) {
  // At or above 2^52 every double is already an integer (NaN passes too).
  constexpr double kIntegral = 4503599627370496.0;
  const double ax = std::abs(x);
  if (!(ax < kIntegral)) return x;
  // Both steps are exact below 2^52: truncation through int64, and the
  // fraction ax - t (no `ax + 0.5`, which rounds 0.5 - 2^-54 up to 1).
  double t = static_cast<double>(static_cast<std::int64_t>(ax));
  if (ax - t >= 0.5) t += 1.0;
  return std::copysign(t, x) + 0.0;
}

/// Round onto the `kEps` grid; used only for hashing, never for arithmetic.
/// Distinct grid points stay distinct at any magnitude: a weight ratio of
/// 1e9 and one of 2e9 must not share an add-cache key.
inline cplx bucketed(const cplx& a, double eps = kEps) {
  const double inv = 1.0 / eps;
  return {round_half_away(a.real() * inv), round_half_away(a.imag() * inv)};
}

/// Hash compatible with `approx_equal` for values that are not adjacent to a
/// bucket boundary (the standard, imperfect-but-practical DD compromise).
std::size_t hash_value(const cplx& a, double eps = kEps);

/// Render as "a+bi" with short precision, for diagnostics and DOT dumps.
std::string to_string(const cplx& a);

/// Combine hashes (boost::hash_combine recipe, 64-bit).
inline std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace qts
