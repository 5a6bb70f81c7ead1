#include "qts/parallel.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace qts {

using tdd::Edge;

/// One worker: a slot into the shared manager and a private context view.
struct ParallelImage::Worker {
  ExecutionContext ctx;
  tdd::Manager::ThreadSlot* slot = nullptr;
};

std::size_t ParallelImage::worker_count(std::size_t threads) {
  require(threads <= kMaxParallelThreads,
          "parallel engine takes at most " + std::to_string(kMaxParallelThreads) +
              " threads, got " + std::to_string(threads));
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxParallelThreads);
}

ParallelImage::ParallelImage(tdd::Manager& mgr, std::size_t threads, ExecutionContext* ctx)
    : ContractionImage(mgr, 4, 4, ctx) {
  const std::size_t count = worker_count(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto w = std::make_unique<Worker>();
    w->slot = &mgr.create_slot(&w->ctx);
    workers_.push_back(std::move(w));
  }
}

ParallelImage::~ParallelImage() {
  for (const auto& w : workers_) mgr_.release_slot(*w->slot);
}

std::size_t ParallelImage::shard_count(std::size_t tasks) const {
  if (tasks == 0) return 0;
  // Floor division: every shard keeps at least kMinTasksPerShard tasks, so
  // per-shard fork/join overhead stays amortised; below that, one shard,
  // which run_pool(1) executes inline.
  return std::clamp(tasks / kMinTasksPerShard, std::size_t{1}, workers_.size());
}

std::vector<Edge> ParallelImage::image_step(std::span<const QuantumOperation> ops,
                                            std::span<const Edge> kets, std::uint32_t,
                                            std::size_t* shards_used) {
  ScopedTimer timer(ctx_);
  // The task list in the step's own (op, Kraus, ket) order, fixed before any
  // worker starts.  Sharding at task grain rather than ket grain keeps the
  // whole pool busy even when a narrow frontier meets a wide Kraus family
  // (one ket x 16 noise circuits is 16 tasks, not 1 shard).
  struct Task {
    const Prepared* prep;
    const Edge* ket;
  };
  std::size_t kraus_total = 0;
  for (const auto& op : ops) kraus_total += op.kraus.size();

  // Contiguous balanced shards over the task list, sized adaptively: one
  // shard per full kMinTasksPerShard tasks up to the worker count, and
  // rounds too small for two shards run inline.
  const std::size_t ntasks = kraus_total * kets.size();
  const std::size_t nshards = shard_count(ntasks);
  if (shards_used != nullptr) *shards_used = nshards;
  if (nshards == 0) return {};

  // Every circuit is prepared here, on the caller's thread and its context,
  // so the workers only read the prepared cache.
  std::vector<Task> tasks;
  tasks.reserve(ntasks);
  for (const auto& op : ops) {
    for (const auto& kraus : op.kraus) {
      const Prepared* prep = &prepared(kraus);
      for (const auto& ket : kets) tasks.push_back({prep, &ket});
    }
  }
  std::vector<std::size_t> bounds(nshards + 1, 0);
  for (std::size_t s = 0; s < nshards; ++s) {
    bounds[s + 1] = bounds[s] + ntasks / nshards + (s < ntasks % nshards ? 1 : 0);
  }

  // Every image lands in its task's own slot, so the output is in task order
  // whatever the worker count was.  Results live straight in the shared
  // manager — no per-worker pools, no ket shipping: the input kets and the
  // prepared operators are immutable shared data while workers run, and a
  // result edge is valid in the parent's hands the moment its worker stores
  // it.  Each push records the image's size on its worker's context; the
  // join max-merges those peaks.
  std::vector<Edge> out(ntasks);
  run_pool(nshards, [&](std::size_t s) {
    ExecutionContext* ctx = &workers_[s]->ctx;
    for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      out[i] = apply(*tasks[i].prep, *tasks[i].ket, ctx);
    }
  });
  return out;
}

void ParallelImage::run_pool(std::size_t active, const std::function<void(std::size_t)>& task) {
  // Fresh context views each round: workers share this round's deadline and
  // the engine's stop flag, and start with zeroed stats (last round's were
  // merged).  Assignment keeps every Worker::ctx address stable, which the
  // worker's slot holds a pointer to.
  stop_.store(false, std::memory_order_relaxed);
  for (auto& w : workers_) w->ctx = ctx_->worker_view(&stop_);

  // Only the worker that raises the stop flag records its error; the
  // siblings it stops throw DeadlineExceeded, which is dropped.  The parent
  // reads the error after the joins below.
  std::exception_ptr first_error;
  auto run_worker = [&](std::size_t idx) {
    Worker& w = *workers_[idx];
    // Route this thread's manager traffic through the worker's slot: its
    // operation caches, its allocation free-list, its stats/deadline sink.
    const tdd::Manager::SlotGuard guard(*w.slot);
    try {
      task(idx);
    } catch (...) {
      // Stop the siblings at their next deadline poll — including polls deep
      // inside Manager contractions via the slot tick.
      if (!stop_.exchange(true)) first_error = std::current_exception();
    }
  };

  // Worker state (slot, context view) persists across rounds; the threads
  // themselves are per-round, which is noise next to the Kraus applications
  // they run.  A single-worker round skips the spawn and
  // runs inline on the calling thread — same worker state, same results.
  if (active == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(active);
    for (std::size_t i = 0; i < active; ++i) pool.emplace_back(run_worker, i);
    for (auto& t : pool) t.join();
  }

  // Joining the threads above is the happens-before edge that lets the
  // parent read worker stats and the error — and lets a driver GC sweep the
  // arena — safely.
  for (const auto& w : workers_) ctx_->join_worker(w->ctx);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace qts
