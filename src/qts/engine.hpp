/// \file engine.hpp
/// Engine factory and registry: one seam through which every tool, bench,
/// example and test constructs an image computation engine.
///
/// An engine is named by a compact spec string:
///
///   "basic"                    the §IV-C monolithic-operator algorithm
///   "addition:k"               the §V-A addition partition with k sliced indices
///   "contraction:k1,k2"        the §V-B contraction partition with cut (k1, k2)
///   "parallel:t[,spec]"        the Kraus×basis loop sharded across t worker
///                              threads (0 = hardware concurrency), each
///                              running the nested sequential engine `spec`
///                              (default contraction:4,4) on the caller's
///                              shared manager
///   "statevector[:maxq]"       dense statevector backend (sim::) behind the
///                              same seam — frontier kets are decoded to
///                              2^n amplitudes, imaged densely and re-encoded;
///                              registers wider than maxq (default 14) throw.
///                              Also valid as a parallel inner spec.
///   "sparse[:maxnz]"           sparse amplitude-map backend behind the same
///                              seam — only non-zero amplitudes are stored,
///                              so the guard is the per-ket non-zero budget
///                              maxnz (default 65536), not a qubit count.
///                              Also valid as a parallel inner spec.
///   "fallback:specA;specB[;...]"  graceful degradation: run specA and, on
///                              ResourceExhausted (budget/cap/OOM — never on
///                              caller or library bugs), re-seed the next
///                              spec and continue from the last completed
///                              iteration.  Elements may be parallel specs;
///                              chains cannot nest and cannot be a parallel
///                              inner engine.
///
/// (Methods without parameters use the defaults below.)  The spec is the
/// whole configuration: each algorithm fixes its own contraction order
/// (tn/order.hpp), and no other setting reaches an engine.  Later backends
/// plug in through register_engine without touching any call site.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qts/image.hpp"

namespace qts {

/// Parsed engine specification.  `method` selects the registered factory;
/// the numeric parameters carry the method's tuning knobs; `args` keeps the
/// raw text after the first ':' for custom registered engines with their own
/// parameter syntax.
struct EngineSpec {
  std::string method = "contraction";
  std::size_t k = 1;       ///< addition: number of sliced indices
  std::uint32_t k1 = 4;    ///< contraction: qubit band height
  std::uint32_t k2 = 4;    ///< contraction: crossings per vertical cut
  std::size_t threads = 0; ///< parallel: worker count (0 = hardware concurrency)
  std::string inner = "contraction:4,4";  ///< parallel: nested sequential engine spec
  std::uint32_t max_qubits = 14;  ///< statevector: dense qubit cap (kDenseQubitCap)
  std::size_t max_nonzeros = std::size_t{1} << 16;  ///< sparse: per-ket non-zero
                                                    ///< budget (kSparseNonzeroCap)
  std::string args;        ///< raw parameter text (custom engines)

  /// Parse "basic" | "addition[:k]" | "contraction[:k1,k2]" |
  /// "parallel[:t[,spec]]" | "statevector[:maxq]" | "sparse[:maxnz]" |
  /// "name[:args]" for registered custom engines.
  /// Throws InvalidArgument on malformed input (unknown built-in parameter
  /// shapes, non-numeric or zero counts, trailing garbage after a count,
  /// a nested parallel spec).
  static EngineSpec parse(const std::string& text);

  /// Canonical spec string; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;
};

/// Factory signature: build an engine on `mgr`, reporting through `ctx`
/// (nullptr = the engine's private context).
using EngineFactory =
    std::function<std::unique_ptr<ImageComputer>(tdd::Manager&, const EngineSpec&,
                                                 ExecutionContext*)>;

/// Register (or replace) a factory under `method`.  The seven built-ins
/// (basic, addition, contraction, parallel, statevector, sparse, fallback)
/// are pre-registered.  Returns true if a previous registration was replaced.
bool register_engine(const std::string& method, EngineFactory factory);

/// Sorted names of every registered engine method.
std::vector<std::string> registered_engines();

/// Construct the engine described by `spec`.  Throws InvalidArgument for an
/// unregistered method.
std::unique_ptr<ImageComputer> make_engine(tdd::Manager& mgr, const EngineSpec& spec,
                                           ExecutionContext* ctx = nullptr);

/// Convenience: parse + construct in one call.
std::unique_ptr<ImageComputer> make_engine(tdd::Manager& mgr, const std::string& spec,
                                           ExecutionContext* ctx = nullptr);

}  // namespace qts
