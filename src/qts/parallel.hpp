/// \file parallel.hpp
/// The parallel image engine: shard the image step across worker threads
/// sharing ONE concurrent TDD manager.
///
/// ImageComputer::image_step is embarrassingly parallel at the Kraus×ket
/// grain — every `apply` is independent and the results are only combined
/// at the end.  Since the tdd::Manager became thread-safe (sharded unique
/// table, arena node storage, per-thread operation caches), ParallelImage
/// overrides that one hook with a pool of workers running directly on the
/// caller's manager, so image(op, S), image(sys, S), image_kets and every
/// FixpointDriver iteration all run through the same loop:
///
///   1. the task list (one task per operation × Kraus circuit × ket, in the
///      step's op-major, Kraus-major, ket-minor order) is cut into
///      contiguous shards before any worker starts;
///   2. each worker applies its shard's Kraus circuits in place and stores
///      every image in its task's slot of the output — input kets, prepared
///      operators and result kets all live in the one shared manager, so
///      nothing is ever copied between node pools (a test pins the
///      projector node-identical to the sequential engine's);
///   3. after all workers join, the output is in *task order*, so it is
///      bit-for-bit independent of the worker count.
///
/// Workers return every image: the caller's one Gram-Schmidt pass
/// (Subspace::add_states) decides what is new.  On GHZ9 with depolarising
/// noise a worker-side containment test dropped none of 4,096 images and
/// cost more than computing them.
///
/// Each worker owns a Manager::ThreadSlot (operation caches, allocation
/// free-list, stats sink) installed via SlotGuard for the duration of a
/// round, a private inner engine (any registered sequential engine; default
/// contraction) whose prepared-operator cache lives in the shared manager,
/// and a private ExecutionContext view.  The views share the parent's
/// deadline and read the engine's stop flag: the first worker to fail (a
/// DeadlineExceeded inside its contraction, a budget error, ...) raises the
/// flag, which stops the siblings at their next deadline poll, and the
/// parent rethrows that worker's error after the join.  The flag is cleared
/// at the top of every round, so a failed round leaves the engine reusable.
/// Worker stats are merged into the parent (counters summed, peak = max).
/// Workers take no storage samples: read the one manager's shape from
/// Manager::storage_stats() once the run is over.
/// The destructor gives the slots back to the manager (Manager::release_slot),
/// so a later engine on the same manager reuses them.
///
/// Garbage collection is not the engine's business any more: with one shared
/// manager the driver's quiescent-point policy (the adaptive growth-rate
/// trigger) covers worker allocations too.  Between fork/join
/// rounds the manager is quiescent, which is exactly when the FixpointDriver
/// collects.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "qts/engine.hpp"

namespace qts {

class ParallelImage final : public ImageComputer {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency (at least 1).
  /// `inner` names the sequential engine each worker runs; it must not be
  /// "parallel" itself.  `mgr` is shared by the parent and every worker.
  ParallelImage(tdd::Manager& mgr, std::size_t threads, EngineSpec inner,
                ExecutionContext* ctx = nullptr);
  ~ParallelImage() override;

  [[nodiscard]] std::string name() const override { return "parallel"; }
  [[nodiscard]] std::size_t threads() const { return workers_.size(); }
  [[nodiscard]] const EngineSpec& inner_spec() const { return inner_; }

  /// Adaptive shard sizing.  A round's parallelism is derived from its task
  /// count, not fixed at one-shard-per-worker: the task list is cut into
  /// floor(tasks / kMinTasksPerShard) contiguous shards, at least one and
  /// at most the worker count — so a shard never holds fewer than
  /// kMinTasksPerShard tasks (unless the whole round does), idle-worker
  /// overhead stays off narrow frontiers, and a round too small for two
  /// shards runs inline on the caller's thread, where a thread spawn would
  /// dominate.  Determinism is untouched either way: results join in task
  /// order, so shard boundaries never show in the output.
  static constexpr std::size_t kMinTasksPerShard = 4;

  /// Shards (= active workers) a round of `tasks` tasks is cut into; 0 for
  /// an empty round.
  [[nodiscard]] std::size_t shard_count(std::size_t tasks) const;

  /// The parallel engine runs whole frontier bodies, sharded across the
  /// workers.
  [[nodiscard]] bool shards_frontier() const override { return true; }

  /// The one sharded loop.  The step's (op, Kraus, ket) task list is split
  /// into contiguous balanced shards (shard_count of them) *before* any
  /// worker starts; each worker applies its tasks on the shared manager and
  /// stores every image in its task's slot, so the result is the task
  /// list's own order and bit-for-bit independent of the worker count: the
  /// shard boundaries move with `threads`, but every image depends only on
  /// its task.  The result equals the sequential engines' raw images, node
  /// for node.
  std::vector<tdd::Edge> image_step(std::span<const QuantumOperation> ops,
                                    std::span<const tdd::Edge> kets, std::uint32_t n,
                                    std::size_t* shards_used) override;

  /// The prepared-operator caches live in the workers' inner engines (keyed
  /// on Circuit addresses, like any sequential engine's); forward the drop.
  void clear_prepared() override;

  /// Everything the workers' prepared caches keep alive in the SHARED
  /// manager (the engine itself prepares nothing).  Driver GCs must see these
  /// or they would sweep live operators out from under the workers.
  [[nodiscard]] std::vector<tdd::Edge> prepared_roots() const override;

 private:
  struct Worker;

  /// Run `task(worker_index)` on the first `active` workers: fresh context
  /// views, per-round thread spawn (inline when active == 1), the worker's
  /// ThreadSlot installed for the round, the first error raising stop_ to
  /// stop the siblings, stat merge on join, and rethrow of that error.
  void run_pool(std::size_t active, const std::function<void(std::size_t)>& task);

  EngineSpec inner_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};  // raised by a round's first failing worker
};

}  // namespace qts
