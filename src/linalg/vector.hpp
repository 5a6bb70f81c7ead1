/// \file vector.hpp
/// Dense complex vectors.  This module is the *oracle substrate*: every TDD
/// operation has a dense counterpart here, and the test suite cross-checks
/// the two on small instances.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/complex.hpp"

namespace qts::la {

/// Dense complex column vector.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t size) : data_(size, cplx{0.0, 0.0}) {}
  Vector(std::initializer_list<cplx> values) : data_(values) {}
  explicit Vector(std::vector<cplx> values) : data_(std::move(values)) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  cplx& operator[](std::size_t i) { return data_[i]; }
  const cplx& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] const std::vector<cplx>& data() const { return data_; }

  /// Computational basis vector |index⟩ in a `size`-dimensional space.
  static Vector basis(std::size_t size, std::size_t index);

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(const cplx& scalar);

  /// this += coeff * other, in place (no temporary vector).
  void axpy(const cplx& coeff, const Vector& other);

  friend Vector operator+(Vector a, const Vector& b) { return a += b; }
  friend Vector operator-(Vector a, const Vector& b) { return a -= b; }
  friend Vector operator*(Vector a, const cplx& s) { return a *= s; }
  friend Vector operator*(const cplx& s, Vector a) { return a *= s; }

  /// Hermitian inner product ⟨this|other⟩ (conjugate-linear in `this`).
  [[nodiscard]] cplx dot(const Vector& other) const;

  /// Euclidean norm.
  [[nodiscard]] double norm() const;

  /// this / ‖this‖; throws InvalidArgument on (approximately) zero vectors.
  [[nodiscard]] Vector normalized() const;

  /// Componentwise conjugate.
  [[nodiscard]] Vector conjugate() const;

  /// True if all components are within eps of the other's.
  [[nodiscard]] bool approx(const Vector& other, double eps = 1e-8) const;

  /// True if this and other span the same ray (equal up to global phase).
  [[nodiscard]] bool same_ray(const Vector& other, double eps = 1e-8) const;

  /// Kronecker product.
  [[nodiscard]] Vector kron(const Vector& other) const;

 private:
  std::vector<cplx> data_;
};

}  // namespace qts::la
