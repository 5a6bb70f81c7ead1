/// \file fault.hpp
/// Deterministic fault injection for exercising recovery paths.
///
/// A FaultPlan is a small list of armed faults parsed from `--inject` specs
/// and attached to an ExecutionContext.  The resource-sensitive layers carry
/// cheap probe calls (the node arena's allocation path, the seam codecs, the
/// deadline poll); when a probe matches an armed fault's trigger the plan
/// throws the same exception the real failure would produce — so every
/// recovery seam (fallback chains, worker unwinding, the qtsmc exit
/// ladder) can be forced on demand, reproducibly.
///
/// Spec grammar (comma-separated list of faults):
///
///   <fault>@iter<K>      fire once, at the first probe of fixpoint
///                        iteration K (1-based, as reported by --verbose)
///   <fault>@count:<N>    fire once, at the N-th probe of that kind
///                        (1-based, counted across the whole run)
///
/// with <fault> one of:
///
///   nodes      allocation probe  -> ResourceExhausted(kNodes)
///   alloc      allocation probe  -> std::bad_alloc (exercises the slab
///              boundary's bad_alloc -> ResourceExhausted(kMemory) seam)
///   qubits     codec probe       -> ResourceExhausted(kQubits), only in
///              dense-guarded codecs
///   nonzeros   codec probe       -> ResourceExhausted(kNonzeros), only in
///              sparse-guarded codecs
///   deadline   deadline poll     -> DeadlineExceeded
///
/// Determinism: triggers depend only on the fixpoint iteration counter (set
/// by the FixpointDriver through ExecutionContext::begin_iteration) or on a
/// per-fault probe counter — never on wall-clock time — so the same plan on
/// the same workload fires at the same place every run.  Every fault fires
/// at most once (`fired` latches), so a recovery layer that retries after
/// catching the injected failure makes progress instead of looping.
///
/// Thread-safety: probes may run concurrently from worker threads (the plan
/// is shared through ExecutionContext::worker_view); counters are atomic and
/// the fire-once latch is a compare-exchange, so exactly one probe wins a
/// trigger.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace qts {

class FaultPlan {
 public:
  /// What kind of failure an armed fault injects, at which probe site.
  enum class Kind {
    kNodes,     ///< allocation probe -> ResourceExhausted(Resource::kNodes)
    kAlloc,     ///< allocation probe -> std::bad_alloc
    kQubits,    ///< codec probe -> ResourceExhausted(Resource::kQubits)
    kNonzeros,  ///< codec probe -> ResourceExhausted(Resource::kNonzeros)
    kDeadline,  ///< deadline poll -> DeadlineExceeded
  };

  /// One armed fault: fires at iteration `iteration` (when non-zero) or at
  /// the `count`-th probe of its kind (when non-zero); exactly one of the
  /// two is set by parse().
  struct Fault {
    Kind kind;
    std::size_t iteration = 0;
    std::uint64_t count = 0;
    std::string spec;  ///< original text, echoed in injected messages
    std::atomic<std::uint64_t> probes{0};
    std::atomic<bool> fired{false};
  };

  /// Parses a comma-separated fault list (grammar above).  Throws
  /// InvalidArgument on unknown fault names, malformed triggers, or an
  /// empty list.
  static std::shared_ptr<FaultPlan> parse(const std::string& text);

  /// Called by the FixpointDriver at the top of each iteration (1-based).
  void begin_iteration(std::size_t i) { iteration_.store(i, std::memory_order_relaxed); }

  // -- probe sites ----------------------------------------------------------

  /// Node-allocation probe (tdd::Manager::allocate_node).  Fires kNodes as
  /// ResourceExhausted and kAlloc as std::bad_alloc.
  void probe_alloc();

  /// Codec probe (seam engine encode/decode paths); `guard` names the
  /// resource the calling codec enforces, so a `qubits` fault only fires in
  /// dense-guarded codecs and `nonzeros` only in sparse-guarded ones.
  void probe_codec(Resource guard);

  /// Deadline-poll probe (ExecutionContext::check_deadline).  Fires
  /// kDeadline as DeadlineExceeded.
  void probe_deadline();

  /// True when every armed fault has fired.
  [[nodiscard]] bool exhausted() const;

  [[nodiscard]] const std::vector<std::unique_ptr<Fault>>& faults() const { return faults_; }

 private:
  /// Advances `f`'s trigger state for one probe and returns true when this
  /// probe is the one that fires it (at most one caller ever sees true).
  bool should_fire(Fault& f);

  std::atomic<std::size_t> iteration_{0};
  std::vector<std::unique_ptr<Fault>> faults_;
};

}  // namespace qts
