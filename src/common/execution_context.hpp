/// \file execution_context.hpp
/// The single run-control spine threaded through every engine layer.
///
/// One ExecutionContext travels with a computation through the TDD manager,
/// the tensor-network contractor, the image computers and the fixpoint
/// loops, so every engine reports wall-clock time, peak TDD size, cache
/// effectiveness and deadline state through one object instead of the
/// historical trio of ImageStats / PeakStats / Manager::CacheStats.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"

namespace qts {

/// Aggregated counters for one run.  `peak_nodes` is the paper's "max
/// #node": the largest TDD observed at any point of the computation,
/// including pre-contracted operators and intermediate contractions.
struct RunStats {
  double seconds = 0.0;               ///< wall-clock spent in timed regions
  std::size_t peak_nodes = 0;         ///< largest single TDD seen (paper's "max #node")
  std::size_t kraus_applications = 0; ///< Kraus-operator applications to basis kets
  std::size_t gc_runs = 0;            ///< mark-sweep collections triggered

  // Fixpoint-loop counters (filled by the FixpointDriver).
  std::size_t fixpoint_iterations = 0;  ///< frontier iterations driven
  std::size_t frontier_kets = 0;        ///< frontier basis vectors imaged, summed over iterations
  std::size_t frontier_shards = 0;      ///< frontier shards dispatched (1 per sequential iteration)
  std::size_t frontier_candidates = 0;  ///< image vectors handed to Gram-Schmidt
  std::size_t frontier_survivors = 0;   ///< image vectors that extended the accumulator
  std::size_t max_frontier_dim = 0;     ///< widest frontier seen in any iteration

  // Result-cache counters (filled by the cached model-checking entry points
  // in reachability/backward when a ResultCache is attached; summed on join
  // like the other counters).
  std::size_t cache_hits = 0;    ///< jobs served from the result cache
  std::size_t cache_misses = 0;  ///< jobs that had to run the fixpoint
  std::size_t cache_stores = 0;  ///< finished jobs recorded into the cache

  // Contraction-order planner gauges (filled by tn::plan_order* — summed on
  // join except plan_max_width, which is max-merged like peak_nodes).
  std::size_t plans_computed = 0;  ///< contraction plans built this run
  double plan_seconds = 0.0;       ///< wall-clock spent planning orders
  std::size_t plan_max_width = 0;  ///< widest planned intermediate index set

  // Graceful-degradation counters (filled by the fallback engine chain).
  std::size_t degradations = 0;  ///< backend switches after ResourceExhausted
  /// Switches by cause, indexed by static_cast<std::size_t>(Resource).
  std::array<std::size_t, 4> degradation_causes{};

  // Structural-audit counters (filled by the fixpoint driver and qtsmc when
  // --audit / --audit-every are armed; audits_run sums on join, audited_nodes
  // max-merges like the other one-shared-manager gauges).
  std::size_t audits_run = 0;      ///< structural audits executed (all clean, or we threw)
  std::size_t audited_nodes = 0;   ///< most interned nodes any single audit walked

  // TDD manager cache counters (unique table / add cache / cont cache).
  std::size_t unique_hits = 0;
  std::size_t unique_misses = 0;
  std::size_t add_hits = 0;
  std::size_t add_misses = 0;
  std::size_t cont_hits = 0;
  std::size_t cont_misses = 0;

  // Shared-manager storage gauge: sampled, not accumulated, and only when a
  // caller copies it in with Manager::sample_storage (no engine does;
  // Manager::storage_stats() has the manager's full shape).  join_worker
  // leaves it alone.
  std::size_t table_nodes = 0;  ///< entries across all unique-table shards
};

/// hits / (hits + misses) as a percentage; 0 when no lookups happened.
double hit_rate_pct(std::size_t hits, std::size_t misses);

/// Run-control state shared by every layer of an engine: a cooperative
/// wall-clock deadline, the aggregated RunStats, and the GC policy for
/// long-running fixpoint loops.  Single-threaded like the tdd::Manager it
/// usually rides along with — use one per engine.  Fork/join parallelism
/// gives each worker thread its own worker_view(), which shares only
/// immutable or internally synchronised state: the absolute deadline, the
/// fault plan (atomic counters) and, read-only, the engine's stop flag.
class ExecutionContext {
 public:
  ExecutionContext() = default;

  // -- deadline -------------------------------------------------------------

  void set_deadline(const Deadline& d) { deadline_ = d; }
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }
  [[nodiscard]] bool deadline_expired() const { return deadline_.expired(); }

  /// Throws DeadlineExceeded when the budget is spent or, in a worker view,
  /// when its engine raised the stop flag (a stopped worker's result is never
  /// used, so stopping through the same exception path keeps every layer's
  /// unwind identical).  Armed `deadline@...` faults fire here too, through
  /// the same exception.
  void check_deadline() const {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) throw DeadlineExceeded{};
    if (fault_plan_) fault_plan_->probe_deadline();
    deadline_.check();
  }

  // -- fork/join ------------------------------------------------------------

  /// A worker's private view of this context: the deadline (absolute
  /// expiry), the fault plan and the node budget, fresh stats, and `stop`
  /// (nullable, not owned), a flag the fork/join engine raises to stop its
  /// workers at their next deadline check.  One worker_view per worker
  /// thread; fold the worker's stats back with join_worker once its thread
  /// has joined.
  [[nodiscard]] ExecutionContext worker_view(const std::atomic<bool>* stop = nullptr) const;

  /// Merge a joined worker's stats into this context: counters are summed,
  /// peak_nodes is the maximum.  `seconds` is summed too — workers time
  /// nothing by default, and a fork/join parent accounts wall-clock with its
  /// own ScopedTimer around the whole round.
  void join_worker(const ExecutionContext& worker);

  // -- resource budgets -----------------------------------------------------

  /// Hard live-node budget (`qtsmc --max-nodes`): when non-zero, the TDD
  /// manager refuses to allocate past this many live nodes and throws
  /// ResourceExhausted(Resource::kNodes) instead.  Unlike the adaptive GC
  /// trigger (which reclaims garbage and keeps going) this is a ceiling on the live
  /// set itself — the signal a fallback chain degrades on.
  void set_max_nodes(std::size_t n) { max_nodes_ = n; }
  [[nodiscard]] std::size_t max_nodes() const { return max_nodes_; }

  /// Called by the manager's allocation path with the current live-node
  /// count; throws ResourceExhausted when the budget is exceeded and runs
  /// any armed allocation faults.
  void check_node_budget(std::size_t live_nodes) const {
    if (max_nodes_ != 0 && live_nodes >= max_nodes_) {
      throw ResourceExhausted(Resource::kNodes,
                              "TDD manager: live node count " + std::to_string(live_nodes) +
                                  " reached the --max-nodes budget of " +
                                  std::to_string(max_nodes_));
    }
    if (fault_plan_) fault_plan_->probe_alloc();
  }

  // -- fault injection ------------------------------------------------------

  /// Attach a deterministic fault plan (see common/fault.hpp).  The plan is
  /// shared with every worker_view.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) { fault_plan_ = std::move(plan); }
  [[nodiscard]] const std::shared_ptr<FaultPlan>& fault_plan() const { return fault_plan_; }

  /// Codec fault probe: seam-engine encode/decode paths report the resource
  /// guard they enforce so `qubits@...`/`nonzeros@...` faults fire in the
  /// matching codec only.  No-op without an armed plan.
  void fault_codec(Resource guard) const {
    if (fault_plan_) fault_plan_->probe_codec(guard);
  }

  /// Fixpoint bookkeeping: the driver announces each iteration (1-based) so
  /// iteration-triggered faults and degradation records are deterministic.
  void begin_iteration(std::size_t i) {
    current_iteration_ = i;
    if (fault_plan_) fault_plan_->begin_iteration(i);
  }
  [[nodiscard]] std::size_t current_iteration() const { return current_iteration_; }

  // -- statistics -----------------------------------------------------------

  [[nodiscard]] RunStats& stats() { return stats_; }
  [[nodiscard]] const RunStats& stats() const { return stats_; }
  void reset_stats() { stats_ = RunStats{}; }

  void record_peak(std::size_t nodes) {
    if (nodes > stats_.peak_nodes) stats_.peak_nodes = nodes;
  }
  void add_seconds(double s) { stats_.seconds += s; }

  // -- GC policy ------------------------------------------------------------

  /// Adaptive GC (on by default): fixpoint loops run a mark-sweep GC (roots:
  /// the live subspaces plus the engine's prepared operators) when the live
  /// node count has grown past `growth` times the count measured after the
  /// previous collection — i.e. the trigger tracks the live-node growth
  /// rate instead of a fixed ceiling — but never below `floor` nodes, so
  /// small workloads pay nothing.  `floor` 1 with `growth` 1.0 collects
  /// before every iteration.
  void set_adaptive_gc(bool enabled, std::size_t floor = kAdaptiveGcFloor,
                       double growth = kAdaptiveGcGrowth) {
    adaptive_gc_ = enabled;
    adaptive_gc_floor_ = floor;
    adaptive_gc_growth_ = growth;
  }
  [[nodiscard]] bool adaptive_gc() const { return adaptive_gc_; }
  [[nodiscard]] std::size_t adaptive_gc_floor() const { return adaptive_gc_floor_; }
  [[nodiscard]] double adaptive_gc_growth() const { return adaptive_gc_growth_; }

  static constexpr std::size_t kAdaptiveGcFloor = std::size_t{1} << 16;
  static constexpr double kAdaptiveGcGrowth = 2.0;

  // -- structural audits ----------------------------------------------------

  /// When non-zero, fixpoint drivers run tdd::audit every `k` iterations
  /// (and after every GC) and throw tdd::AuditError on corruption.  0
  /// disables (the default: a full table/arena walk per iteration is a
  /// debugging tool, not a fast path).
  void set_audit_every(std::size_t k) { audit_every_ = k; }
  [[nodiscard]] std::size_t audit_every() const { return audit_every_; }

 private:
  Deadline deadline_;
  RunStats stats_;
  // A worker view's stop flag; its fork/join engine owns and raises it.
  const std::atomic<bool>* stop_ = nullptr;
  std::shared_ptr<FaultPlan> fault_plan_;
  std::size_t max_nodes_ = 0;
  std::size_t current_iteration_ = 0;
  std::size_t audit_every_ = 0;
  bool adaptive_gc_ = true;
  std::size_t adaptive_gc_floor_ = kAdaptiveGcFloor;
  double adaptive_gc_growth_ = kAdaptiveGcGrowth;
};

/// RAII region timer: adds the scope's wall-clock time to the context's
/// `stats().seconds` (null context: no-op).
class ScopedTimer {
 public:
  explicit ScopedTimer(ExecutionContext* ctx) : ctx_(ctx) {}
  ~ScopedTimer() {
    if (ctx_ != nullptr) ctx_->add_seconds(timer_.seconds());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ExecutionContext* ctx_;
  WallTimer timer_;
};

}  // namespace qts
