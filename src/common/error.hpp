/// \file error.hpp
/// Library exception types.
#pragma once

#include <stdexcept>
#include <string>

namespace qts {

/// Base class for all qtsimage errors.
struct Error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Malformed input (bad qubit index, inconsistent tensor shapes, ...).
struct InvalidArgument : Error {
  using Error::Error;
};

/// Parse failure in the QASM-subset reader.
struct ParseError : Error {
  using Error::Error;
};

/// Internal invariant violation; indicates a library bug.
struct InternalError : Error {
  using Error::Error;
};

/// The resource whose budget a ResourceExhausted throw ran out of.  Kept
/// machine-readable so recovery layers (fallback engine chains, the qtsmc
/// exit-code ladder) can branch on the cause instead of parsing messages.
enum class Resource {
  kQubits,    ///< dense statevector qubit cap (statevector:<maxq>)
  kNonzeros,  ///< sparse per-ket non-zero budget (sparse:<maxnz>)
  kNodes,     ///< live TDD node budget (--max-nodes)
  kMemory,    ///< allocation failure at the node-arena slab boundary, a
              ///< node arena past 2^32 node ids, or a TDD hash table past
              ///< 2^32 - 1 entries
};

/// Stable lower-case name for a Resource ("qubits", "nonzeros", ...).
inline const char* to_string(Resource r) {
  switch (r) {
    case Resource::kQubits: return "qubits";
    case Resource::kNonzeros: return "nonzeros";
    case Resource::kNodes: return "nodes";
    case Resource::kMemory: return "memory";
  }
  return "unknown";
}

/// A resource budget was exhausted.  Unlike InvalidArgument (caller bug) and
/// InternalError (library bug), this failure is *recoverable*: a different
/// backend, a larger budget or a smaller workload may succeed, so fallback
/// chains catch exactly this type and nothing else.
struct ResourceExhausted : Error {
  ResourceExhausted(Resource r, const std::string& message) : Error(message), resource(r) {}
  Resource resource;
};

/// Throws InvalidArgument with the given message if `cond` is false.
inline void require(bool cond, const std::string& message) {
  if (!cond) throw InvalidArgument(message);
}

/// The string-literal form: builds the message only on failure, so a passing
/// check on a hot path (make_node, contract) never allocates.
inline void require(bool cond, const char* message) {
  if (!cond) throw InvalidArgument(message);
}

}  // namespace qts
