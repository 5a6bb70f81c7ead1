#include "common/execution_context.hpp"

namespace qts {

double hit_rate_pct(std::size_t hits, std::size_t misses) {
  const std::size_t total = hits + misses;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(hits) / static_cast<double>(total);
}

ExecutionContext ExecutionContext::worker_view(const std::atomic<bool>* stop) const {
  ExecutionContext view;
  view.deadline_ = deadline_;
  view.stop_ = stop;
  view.fault_plan_ = fault_plan_;  // shared: probe counters span the workers
  view.max_nodes_ = max_nodes_;
  return view;
}

void ExecutionContext::join_worker(const ExecutionContext& worker) {
  const RunStats& w = worker.stats_;
  stats_.seconds += w.seconds;
  if (w.peak_nodes > stats_.peak_nodes) stats_.peak_nodes = w.peak_nodes;
  stats_.kraus_applications += w.kraus_applications;
  stats_.gc_runs += w.gc_runs;
  stats_.fixpoint_iterations += w.fixpoint_iterations;
  stats_.frontier_kets += w.frontier_kets;
  stats_.frontier_shards += w.frontier_shards;
  stats_.frontier_candidates += w.frontier_candidates;
  stats_.frontier_survivors += w.frontier_survivors;
  if (w.max_frontier_dim > stats_.max_frontier_dim) stats_.max_frontier_dim = w.max_frontier_dim;
  stats_.audits_run += w.audits_run;
  if (w.audited_nodes > stats_.audited_nodes) stats_.audited_nodes = w.audited_nodes;
  stats_.unique_hits += w.unique_hits;
  stats_.unique_misses += w.unique_misses;
  stats_.add_hits += w.add_hits;
  stats_.add_misses += w.add_misses;
  stats_.cont_hits += w.cont_hits;
  stats_.cont_misses += w.cont_misses;
  stats_.cache_hits += w.cache_hits;
  stats_.cache_misses += w.cache_misses;
  stats_.cache_stores += w.cache_stores;
  stats_.plans_computed += w.plans_computed;
  stats_.plan_seconds += w.plan_seconds;
  if (w.plan_max_width > stats_.plan_max_width) stats_.plan_max_width = w.plan_max_width;
  stats_.degradations += w.degradations;
  for (std::size_t i = 0; i < w.degradation_causes.size(); ++i) {
    stats_.degradation_causes[i] += w.degradation_causes[i];
  }
}

}  // namespace qts
