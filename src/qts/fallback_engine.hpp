/// \file fallback_engine.hpp
/// Graceful degradation: an engine that is a *chain* of engines.
///
/// Spec: "fallback:specA;specB[;...]" — run specA until it throws
/// ResourceExhausted (dense qubit cap, sparse non-zero budget, --max-nodes,
/// slab out-of-memory), then re-seed specB and keep going, and so on down
/// the chain.  Because the FixpointDriver owns the accumulator and frontier
/// as TDD subspaces — engines only ever see one iteration's worth of work —
/// a degradation resumes from the last completed iteration, not from
/// scratch: the canonical chain "statevector;sparse;basic" starts on the
/// fastest representation the workload allows and finishes on the one that
/// always works.
///
/// The chain overrides one hook, ImageComputer::image_step: the active
/// element's step, run inside a degrade-and-retry loop.  Every entry point
/// (image, image_kets, the driver's frontier step) therefore degrades the
/// same way, and a switch re-runs only the step that failed, on the next
/// element.  Whether that step shards or changes representation is the
/// active element's business.
///
/// Only ResourceExhausted triggers a switch.  InvalidArgument (caller bug),
/// InternalError (library bug) and DeadlineExceeded (the whole run's budget,
/// not one backend's) propagate unchanged: degrading could only mask them.
/// An exhausted chain rethrows ResourceExhausted carrying the full cause
/// trail, so the caller sees every backend that was tried and why it fell.
///
/// Each switch is recorded in RunStats (`degradations`, plus a per-Resource
/// cause counter) and as a DegradationEvent with the driver iteration it
/// happened in; `qtsmc --verbose` prints them live through
/// set_switch_observer and `--stats` summarises them.
///
/// Chain elements may themselves be parallel engines
/// ("fallback:statevector:2;parallel:4" — the ';' split is unambiguous
/// because specs never contain ';').  The parallel engine takes no inner
/// spec, so a chain never sits inside one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qts/engine.hpp"

namespace qts {

/// One backend switch: `from` degraded to `to` because of `cause` during
/// driver iteration `iteration` (0 when outside a fixpoint loop).
struct DegradationEvent {
  std::string from;     ///< canonical spec of the backend that fell
  std::string to;       ///< canonical spec of the backend now active
  Resource cause;       ///< which budget was exhausted
  std::string message;  ///< the ResourceExhausted message
  std::size_t iteration = 0;
};

class FallbackImage final : public ImageComputer {
 public:
  /// Builds every chain element eagerly on `mgr`/`ctx` (construction is
  /// cheap for all registered engines; a degradation mid-run must not fail
  /// on engine construction).  Requires a non-empty chain whose elements
  /// are not themselves fallback chains.
  FallbackImage(tdd::Manager& mgr, std::vector<EngineSpec> chain, ExecutionContext* ctx = nullptr);

  [[nodiscard]] std::string name() const override { return "fallback"; }

  /// Index of the currently active chain element (0 = preferred backend).
  [[nodiscard]] std::size_t active_index() const { return active_; }
  [[nodiscard]] const ImageComputer& active_engine() const { return *engines_[active_]; }
  [[nodiscard]] const std::vector<EngineSpec>& chain() const { return chain_; }

  /// Every switch taken so far, in order.
  [[nodiscard]] const std::vector<DegradationEvent>& degradations() const { return events_; }

  /// Called synchronously on each switch (qtsmc --verbose live reporting).
  void set_switch_observer(std::function<void(const DegradationEvent&)> observer) {
    observer_ = std::move(observer);
  }

  /// Forwards to the active element, which can change between steps when
  /// a backend degrades.
  [[nodiscard]] bool shards_frontier() const override { return active_engine().shards_frontier(); }

  /// The active element's image step, degrading down the chain on
  /// ResourceExhausted and re-running the step on the next element.
  std::vector<tdd::Edge> image_step(std::span<const QuantumOperation> ops,
                                    std::span<const tdd::Edge> kets, std::uint32_t n,
                                    std::size_t* shards_used) override;

  void clear_prepared() override;
  [[nodiscard]] std::vector<tdd::Edge> prepared_roots() const override;

 private:
  [[nodiscard]] ImageComputer& active() { return *engines_[active_]; }

  /// Runs `fn` on the active engine, degrading down the chain on
  /// ResourceExhausted until it succeeds or the chain is exhausted.
  template <typename Fn>
  auto with_fallback(Fn&& fn) -> decltype(fn());

  /// Record a switch (stats, event trail, observer, drop the failed
  /// engine's prepared cache) or rethrow with the full cause trail when no
  /// backend is left.
  void advance_or_rethrow(const ResourceExhausted& e);

  std::vector<EngineSpec> chain_;
  std::vector<std::unique_ptr<ImageComputer>> engines_;
  std::size_t active_ = 0;
  std::vector<DegradationEvent> events_;
  std::function<void(const DegradationEvent&)> observer_;
};

}  // namespace qts
