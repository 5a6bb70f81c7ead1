/// \file bench_cell.hpp
/// The one measurement path of the plain-main harnesses.
///
/// A cell is one engine spec on one system.  run_cell runs it in a fresh
/// ExecutionContext (the row's deadline) and a fresh tdd::Manager bound to
/// it, builds the system and the engine outside the timer, and times only
/// the job: one image of the initial subspace (image_job) or the reachable
/// fixpoint (reach_job).  A DeadlineExceeded makes the cell a timeout.
/// Every engine's counters are read the same way, once the run is over:
/// peak_nodes and degradations from the context, table_nodes from one
/// Manager::storage_stats() sample.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"

namespace qts::bench {

using SystemBuilder = std::function<TransitionSystem(tdd::Manager&)>;

/// What a timed job computed.
struct JobResult {
  std::size_t dim = 0;         ///< dimension of the resulting subspace
  std::size_t iterations = 0;  ///< fixpoint iterations (0 for one image)
};

/// The timed part of a cell.
using Job = std::function<JobResult(ImageComputer&, const TransitionSystem&)>;

/// One image of the initial subspace.
inline Job image_job() {
  return [](ImageComputer& engine, const TransitionSystem& sys) {
    return JobResult{engine.image(sys, sys.initial).dim(), 0};
  };
}

/// The reachable-subspace fixpoint, capped at `steps` iterations, served
/// through `cache` when one is given.
inline Job reach_job(std::size_t steps, ResultCache* cache = nullptr) {
  return [steps, cache](ImageComputer& engine, const TransitionSystem& sys) {
    const ReachabilityResult r = reachable_space(engine, sys, steps, nullptr, nullptr, cache);
    return JobResult{r.space.dim(), r.iterations};
  };
}

struct Cell {
  std::optional<double> ms;  ///< wall time (the median if repeated); empty = timed out
  JobResult result;
  std::size_t peak_nodes = 0;
  std::size_t degradations = 0;
  std::size_t table_nodes = 0;  ///< unique-table entries at the end of the run
  std::size_t cache_hits = 0;   ///< jobs served from a result cache
  std::size_t repeats = 1;
  double spread_ms = 0.0;  ///< max − min wall time of the repeats

  /// The cell as a JSON record; a timed-out cell reports the budget it burned.
  [[nodiscard]] Record record(std::string name, std::size_t threads, double timeout_s) const {
    return {std::move(name), ms.value_or(timeout_s * 1e3), peak_nodes, threads,
            !ms.has_value(), degradations, table_nodes, repeats, spread_ms};
  }
};

/// Runs `job` under engine `spec` on the system `build` makes, `repeats`
/// times, each in a fresh context and manager (no deadline when
/// `timeout_s` <= 0).  Reports the median run, with the spread of the wall
/// times; any timed-out run makes the cell a timeout.
inline Cell run_cell(const std::string& spec, const SystemBuilder& build, const Job& job,
                     double timeout_s, std::size_t repeats = 1) {
  const auto run_once = [&] {
    ExecutionContext ctx;
    if (timeout_s > 0) ctx.set_deadline(Deadline::after(timeout_s));
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const TransitionSystem sys = build(mgr);
    const auto engine = make_engine(mgr, spec, &ctx);
    Cell c;
    try {
      const WallTimer timer;
      c.result = job(*engine, sys);
      c.ms = timer.seconds() * 1e3;
    } catch (const DeadlineExceeded&) {
      c.ms = std::nullopt;
    }
    const RunStats& s = ctx.stats();
    c.peak_nodes = s.peak_nodes;
    c.degradations = s.degradations;
    c.cache_hits = s.cache_hits;
    c.table_nodes = mgr.storage_stats().table_nodes;
    return c;
  };
  std::vector<Cell> runs;
  runs.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    runs.push_back(run_once());
    if (!runs.back().ms) return runs.back();
  }
  std::sort(runs.begin(), runs.end(), [](const Cell& a, const Cell& b) { return *a.ms < *b.ms; });
  Cell c = runs[runs.size() / 2];
  c.repeats = repeats;
  c.spread_ms = *runs.back().ms - *runs.front().ms;
  return c;
}

/// Parses one numeric flag value into `out` with the strict full-match
/// parsers of common/strings.hpp: "x", "8x", "-1" and a count past `out`'s
/// range are refused.  Returns false on a refusal, leaving `out` alone.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  if constexpr (std::is_floating_point_v<T>) {
    const std::optional<double> v = parse_double(text);
    if (!v) return false;
    out = *v;
  } else {
    const std::optional<std::uint64_t> v = parse_uint(text);
    if (!v || *v > std::numeric_limits<T>::max()) return false;
    out = static_cast<T>(*v);
  }
  return true;
}

/// Parses `--threads`' comma-separated list of counts into `out`.  On a
/// malformed piece, prints why under `bench`'s name and returns false.
inline bool parse_counts(std::string_view bench, std::string_view text,
                         std::vector<std::size_t>& out) {
  const std::vector<std::string> pieces = split(text, ",");
  out.assign(pieces.size(), 0);
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (!parse_number(pieces[i], out[i])) {
      std::cerr << bench << ": --threads expects a comma-separated list of numbers, got '"
                << pieces[i] << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace qts::bench
