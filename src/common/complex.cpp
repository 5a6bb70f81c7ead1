#include "common/complex.hpp"

#include <cmath>
#include <functional>
#include <sstream>

namespace qts {

std::size_t hash_value(const cplx& a, double eps) {
  const cplx b = bucketed(a, eps);
  std::size_t h = std::hash<double>{}(b.real());
  return hash_combine(h, std::hash<double>{}(b.imag()));
}

std::string to_string(const cplx& a) {
  std::ostringstream os;
  os.precision(6);
  os << a.real();
  if (a.imag() >= 0) {
    os << "+" << a.imag() << "i";
  } else {
    os << "-" << -a.imag() << "i";
  }
  return os.str();
}

}  // namespace qts
