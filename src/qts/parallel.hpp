/// \file parallel.hpp
/// The parallel image engine: the §V-B contraction partition with cut (4, 4)
/// whose Kraus×ket pushes are sharded across worker threads sharing ONE
/// concurrent TDD manager.
///
/// ParallelImage is a ContractionImage that overrides the one image hook,
/// image_step, so image(op, S), image(sys, S), image_kets and every
/// FixpointDriver iteration run through the same loop:
///
///   1. on the caller's thread, every Kraus circuit of the step is looked
///      up in the inherited prepared-operator cache, so a circuit is
///      prepared once whatever the worker count;
///   2. the (op, Kraus, ket) task list, each task holding its circuit's
///      prepared terms, is cut into contiguous shards before any worker
///      starts;
///   3. each worker pushes its shard through the base class's one per-ket
///      path, reporting to its own context, and stores every image in its
///      task's slot.  Kets, prepared operators and images all live in the
///      shared manager, so nothing is copied between node pools;
///   4. after the join the output is in task order: bit-for-bit independent
///      of the worker count and equal, node for node, to contraction:4,4's.
///
/// Workers return every image: the caller's one Gram-Schmidt pass
/// (Subspace::add_states) decides what is new.  On GHZ9 with depolarising
/// noise a worker-side containment test dropped none of 4,096 images and
/// cost more than computing them.
///
/// Each worker owns a Manager::ThreadSlot (operation caches, allocation
/// free-list, stats sink), installed via SlotGuard for a round, and a
/// private ExecutionContext view.  The views share the parent's deadline
/// and read the engine's stop flag: the first worker to fail raises it, the
/// siblings stop at their next deadline poll, and the parent rethrows that
/// worker's error after the join.  The flag is cleared at the top of every
/// round, so a failed round leaves the engine reusable.  Worker stats are
/// merged into the parent (counters summed, peak = max).  The destructor
/// gives the slots back to the manager (Manager::release_slot).
///
/// The engine runs no GC: between rounds the manager is quiescent, which is
/// when the FixpointDriver collects, keeping the base class's
/// prepared_roots.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "qts/image.hpp"

namespace qts {

class ParallelImage final : public ContractionImage {
 public:
  /// Largest worker count.  Every worker holds a manager slot, so a typo
  /// like parallel:40000 is refused rather than building that many.
  static constexpr std::size_t kMaxParallelThreads = 256;

  /// `threads` == 0 picks std::thread::hardware_concurrency, at least 1 and
  /// at most kMaxParallelThreads.  A larger explicit count throws
  /// InvalidArgument before any slot is taken.  `mgr` is shared by the
  /// parent and every worker.
  ParallelImage(tdd::Manager& mgr, std::size_t threads, ExecutionContext* ctx = nullptr);
  ~ParallelImage() override;

  /// The worker count `threads` resolves to (see the constructor); throws
  /// InvalidArgument above kMaxParallelThreads.  The engine registry calls
  /// it to refuse a spec at parse time.
  static std::size_t worker_count(std::size_t threads);

  [[nodiscard]] std::string name() const override { return "parallel"; }
  [[nodiscard]] std::size_t threads() const { return workers_.size(); }

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

  /// The one sharded loop (steps 1–4 above) over shard_count(tasks)
  /// balanced shards.  Shard boundaries move with `threads`, but every
  /// image depends only on its task, so the result equals
  /// contraction:4,4's raw images, node for node.
  std::vector<tdd::Edge> image_step(std::span<const QuantumOperation> ops,
                                    std::span<const tdd::Edge> kets, std::uint32_t n,
                                    std::size_t* shards_used) override;

 private:
  struct Worker;

  /// Run `task(worker_index)` on the first `active` workers: fresh context
  /// views, per-round thread spawn (inline when active == 1), the worker's
  /// ThreadSlot installed for the round, the first error raising stop_ to
  /// stop the siblings, stat merge on join, and rethrow of that error.
  void run_pool(std::size_t active, const std::function<void(std::size_t)>& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};  // raised by a round's first failing worker
};

}  // namespace qts
