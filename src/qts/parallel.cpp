#include "qts/parallel.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace qts {

using tdd::Edge;

/// One worker: a slot into the shared manager, a private context view and a
/// private inner engine (built on the shared manager).  The engine's
/// prepared-operator cache keys on Circuit addresses and its operator TDDs
/// live in the shared manager, deduplicated against the siblings' by
/// hash-consing.
struct ParallelImage::Worker {
  ExecutionContext ctx;
  tdd::Manager::ThreadSlot* slot = nullptr;
  std::unique_ptr<ImageComputer> engine;
};

ParallelImage::ParallelImage(tdd::Manager& mgr, std::size_t threads, EngineSpec inner,
                             ExecutionContext* ctx)
    : ImageComputer(mgr, ctx), inner_(std::move(inner)) {
  require(inner_.method != "parallel", "parallel engine cannot nest itself");
  require(inner_.method != "fallback",
          "parallel engine: the inner engine cannot be a fallback chain; put parallel "
          "inside the chain elements instead");
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    auto w = std::make_unique<Worker>();
    w->slot = &mgr.create_slot(&w->ctx);
    w->engine = make_engine(mgr, inner_, &w->ctx);
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
                                            std::span<const Edge> kets, std::uint32_t n,
                                            std::size_t* shards_used) {
  ScopedTimer timer(ctx_);
  // The task list in the step's own (op, Kraus, ket) order, fixed before any
  // worker starts.  Sharding at task grain rather than ket grain keeps the
  // whole pool busy even when a narrow frontier meets a wide Kraus family
  // (one ket x 16 noise circuits is 16 tasks, not 1 shard).
  struct Task {
    const circ::Circuit* kraus;
    const Edge* ket;
  };
  std::vector<Task> tasks;
  for (const auto& op : ops) {
    for (const auto& kraus : op.kraus) {
      for (const auto& ket : kets) tasks.push_back({&kraus, &ket});
    }
  }

  // Contiguous balanced shards over the task list, sized adaptively: one
  // shard per full kMinTasksPerShard tasks up to the worker count, and
  // rounds too small for two shards run inline.
  const std::size_t nshards = shard_count(tasks.size());
  if (shards_used != nullptr) *shards_used = nshards;
  if (nshards == 0) return {};
  std::vector<std::size_t> bounds(nshards + 1, 0);
  for (std::size_t s = 0; s < nshards; ++s) {
    bounds[s + 1] = bounds[s] + tasks.size() / nshards + (s < tasks.size() % nshards ? 1 : 0);
  }

  // Every image lands in its task's own slot, so the output is in task order
  // whatever the worker count was.  Results live straight in the shared
  // manager — no per-worker pools, no ket shipping: the input kets are
  // immutable shared data while workers run, and a result edge is valid in
  // the parent's hands the moment its worker stores it.  Each worker's
  // apply_kraus records the image's size; the join max-merges those peaks.
  std::vector<Edge> out(tasks.size());
  run_pool(nshards, [&](std::size_t s) {
    Worker& w = *workers_[s];
    for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      out[i] = w.engine->apply_kraus(*tasks[i].kraus, *tasks[i].ket, n);
    }
  });
  return out;
}

void ParallelImage::run_pool(std::size_t active, const std::function<void(std::size_t)>& task) {
  // Fresh context views each round: workers share this round's deadline and
  // the engine's stop flag, and start with zeroed stats (last round's were
  // merged).  Assignment keeps every Worker::ctx address stable, which the
  // worker's slot and engine hold pointers to.
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

  // Worker state (slot, inner engine, prepared caches) persists across
  // rounds; the threads themselves are per-round, which is noise next to the
  // Kraus applications they run.  A single-worker round skips the spawn and
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

void ParallelImage::clear_prepared() {
  for (const auto& w : workers_) w->engine->clear_prepared();
}

std::vector<Edge> ParallelImage::prepared_roots() const {
  std::vector<Edge> roots;
  for (const auto& w : workers_) {
    const auto worker_roots = w->engine->prepared_roots();
    roots.insert(roots.end(), worker_roots.begin(), worker_roots.end());
  }
  return roots;
}

}  // namespace qts
