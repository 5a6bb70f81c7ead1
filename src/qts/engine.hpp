/// \file engine.hpp
/// Engine factory and registry: one seam through which every tool, bench,
/// example and test constructs an image computation engine.
///
/// An engine is named by a compact spec string:
///
///   "basic"                    the §IV-C monolithic-operator algorithm
///   "addition[:k]"             the §V-A addition partition with k sliced
///                              indices (default 1, at most 20)
///   "contraction[:k1,k2]"      the §V-B contraction partition with cut
///                              (k1, k2) (default 4,4)
///   "parallel[:t]"             contraction:4,4 with its Kraus×basis pushes
///                              sharded across t worker threads (0 =
///                              hardware concurrency, the default; at most
///                              256) on the caller's shared manager
///   "statevector[:maxq]"       dense statevector backend (sim::) behind the
///                              same seam — frontier kets are decoded to
///                              2^n amplitudes, imaged densely and re-encoded;
///                              registers wider than maxq (default 14, at
///                              most 30) throw.
///   "sparse[:maxnz]"           sparse amplitude-map backend behind the same
///                              seam — only non-zero amplitudes are stored,
///                              so the guard is the per-ket non-zero budget
///                              maxnz (default 65536), not a qubit count.
///   "fallback:specA;specB[;...]"  graceful degradation: run specA and, on
///                              ResourceExhausted (budget/cap/OOM — never on
///                              caller or library bugs), re-seed the next
///                              spec and continue from the last completed
///                              iteration.  Elements may be parallel specs;
///                              chains cannot nest.
///
/// Each built-in method is one registry row (engine.cpp): its parameter
/// grammar, defaults, bounds, canonical form and constructor call, written
/// once.  EngineSpec::parse, to_string and make_engine are generic over the
/// rows.  The spec is the whole configuration: each algorithm fixes its own
/// contraction order (tn/order.hpp), and no other setting reaches an engine.
/// Later backends plug in through register_engine without touching any call
/// site; their rows keep the raw argument text.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qts/image.hpp"

namespace qts {

/// Parsed engine specification: a registered method name plus its
/// argument text.  For a built-in method `args` is the row's canonical form
/// ("addition" parses to args "1", "statevector" to "14"); for any other
/// method it is the raw text after the first ':'.  A default-constructed
/// spec names the default engine, contraction:4,4.
struct EngineSpec {
  std::string method = "contraction";
  std::string args = "4,4";

  /// Split `text` at the first ':' and let the method's registry row
  /// validate and canonicalise the argument text.  Unregistered methods keep
  /// their raw args (make_engine rejects them).  Throws InvalidArgument on
  /// malformed input (unknown built-in parameter shapes, non-numeric or
  /// out-of-range counts, trailing garbage after a count).
  static EngineSpec parse(const std::string& text);

  /// "method" or "method:args"; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;
};

/// Factory signature: build an engine on `mgr`, reporting through `ctx`
/// (nullptr = the engine's private context).
using EngineFactory =
    std::function<std::unique_ptr<ImageComputer>(tdd::Manager&, const EngineSpec&,
                                                 ExecutionContext*)>;

/// Register (or replace) a row under `method` whose factory receives the raw
/// argument text in EngineSpec::args.  The seven built-in rows (basic,
/// addition, contraction, parallel, statevector, sparse, fallback) are
/// pre-registered; replacing one replaces its grammar too.  Returns true if
/// a previous registration was replaced.
bool register_engine(const std::string& method, EngineFactory factory);

/// Sorted names of every registered engine method.
std::vector<std::string> registered_engines();

/// Construct the engine described by `spec` through its method's row.
/// Throws InvalidArgument for an unregistered method or arguments the row
/// rejects.
std::unique_ptr<ImageComputer> make_engine(tdd::Manager& mgr, const EngineSpec& spec,
                                           ExecutionContext* ctx = nullptr);

/// Convenience: parse + construct in one call.
std::unique_ptr<ImageComputer> make_engine(tdd::Manager& mgr, const std::string& spec,
                                           ExecutionContext* ctx = nullptr);

}  // namespace qts
