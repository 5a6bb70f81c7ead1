#include "linalg/vector.hpp"

#include <cmath>

#include "common/error.hpp"

namespace qts::la {

Vector Vector::basis(std::size_t size, std::size_t index) {
  require(index < size, "basis index out of range");
  Vector v(size);
  v[index] = cplx{1.0, 0.0};
  return v;
}

Vector& Vector::operator+=(const Vector& other) {
  require(size() == other.size(), "vector size mismatch in +=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] += other[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  require(size() == other.size(), "vector size mismatch in -=");
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= other[i];
  return *this;
}

Vector& Vector::operator*=(const cplx& scalar) {
  for (auto& a : data_) a *= scalar;
  return *this;
}

void Vector::axpy(const cplx& coeff, const Vector& other) {
  require(size() == other.size(), "vector size mismatch in axpy");
  if (coeff == cplx{0.0, 0.0}) return;
  for (std::size_t i = 0; i < size(); ++i) data_[i] += coeff * other[i];
}

cplx Vector::dot(const Vector& other) const {
  require(size() == other.size(), "vector size mismatch in dot");
  cplx acc{0.0, 0.0};
  for (std::size_t i = 0; i < size(); ++i) acc += std::conj(data_[i]) * other[i];
  return acc;
}

double Vector::norm() const { return std::sqrt(dot(*this).real()); }

Vector Vector::normalized() const {
  const double n = norm();
  require(n > 1e-12, "cannot normalize an (approximately) zero vector");
  Vector out = *this;
  out *= cplx{1.0 / n, 0.0};
  return out;
}

Vector Vector::conjugate() const {
  Vector out = *this;
  for (auto& a : out.data_) a = std::conj(a);
  return out;
}

bool Vector::approx(const Vector& other, double eps) const {
  if (size() != other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!approx_equal(data_[i], other[i], eps)) return false;
  }
  return true;
}

bool Vector::same_ray(const Vector& other, double eps) const {
  if (size() != other.size()) return false;
  // |⟨a|b⟩| == ‖a‖·‖b‖ iff the vectors are colinear.
  const double lhs = std::abs(dot(other));
  const double rhs = norm() * other.norm();
  return std::abs(lhs - rhs) <= eps && rhs > eps;
}

Vector Vector::kron(const Vector& other) const {
  Vector out(size() * other.size());
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t j = 0; j < other.size(); ++j) {
      out[i * other.size() + j] = data_[i] * other[j];
    }
  }
  return out;
}

}  // namespace qts::la
