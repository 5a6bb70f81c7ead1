/// \file bench_sparse.cpp
/// Sparse-vs-dense-vs-TDD crossover sweep over non-zero density: the
/// reachable-subspace fixpoint of the noisy quantum walk, started from a
/// uniform superposition over the first d cycle positions, for d sweeping
/// from a single basis state towards the full position register.  The
/// sparse engine pays O(nnz) per Kraus application, the dense engine a
/// structure-blind O(2^n), and the TDD engines pay for their diagram sizes
/// — so the sweep locates the support density where each representation
/// stops winning: the operating envelope of the sparse backend.
///
/// Usage:
///   bench_sparse [--n N] [--p PROB] [--steps N] [--timeout S]
///
/// Defaults: n = 8 (within the dense cap so all three engines can run),
/// p = 0.1, TDD reference engine contraction:4,4, 6-step cap, 30 s budget
/// per cell.  Results land in BENCH_sparse.json.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_cell.hpp"
#include "common/strings.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"

namespace {

using namespace qts;

/// The noisy quantum walk started from a uniform superposition over the
/// first `density` cycle positions (coin |0⟩, so the position bits are the
/// low bits of the basis index): one ket, `density` non-zero amplitudes.
TransitionSystem spread_qrw_system(tdd::Manager& mgr, std::uint32_t n, double p,
                                   std::size_t density) {
  TransitionSystem sys = make_qrw_system(mgr, n, p, true, 0);
  const cplx amp{1.0 / std::sqrt(static_cast<double>(density)), 0.0};
  tdd::Edge spread = mgr.zero();
  for (std::size_t pos = 0; pos < density; ++pos) {
    spread = mgr.add(spread, mgr.scale(ket_basis(mgr, n, pos), amp));
  }
  sys.initial = Subspace::from_states(mgr, n, {spread});
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 8;
  double p = 0.1;
  std::size_t steps = 6;
  double timeout_s = 30.0;
  const std::string tdd_spec = "contraction:4,4";
  const auto fail_usage = [] {
    std::cerr << "usage: bench_sparse [--n N] [--p PROB] [--steps N] [--timeout S]\n";
    return 1;
  };
  // Strict full-match parses: "--n 8x" is an error, not a silently-truncated
  // 8 producing misleading crossover data.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], n) || n > 30) return fail_usage();
    } else if (std::strcmp(argv[i], "--p") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], p)) return fail_usage();
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], steps)) return fail_usage();
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], timeout_s)) return fail_usage();
    } else {
      return fail_usage();
    }
  }
  if (n < 3) n = 3;

  const std::size_t positions = std::size_t{1} << (n - 1);
  std::cout << "sparse vs dense vs TDD crossover — noisy quantum walk fixpoint, n = " << n
            << ", p = " << p << ", " << steps << "-step cap, TDD engine " << tdd_spec << "\n\n";
  std::cout << pad_right("density", 9) << pad_right("engine", 18) << pad_left("wall[ms]", 12)
            << pad_left("dim", 6) << pad_left("iters", 7) << pad_left("peak", 10)
            << pad_left("vs tdd", 9) << "\n";

  bench::JsonWriter json("sparse");
  for (std::size_t density = 1; density <= positions; density *= 4) {
    const std::string cell = "qrw" + std::to_string(n) + "/d" + std::to_string(density);
    const bench::SystemBuilder build = [&](tdd::Manager& mgr) {
      return spread_qrw_system(mgr, n, p, density);
    };
    const auto run = [&](const std::string& spec) {
      return bench::run_cell(spec, build, bench::reach_job(steps), timeout_s);
    };
    const bench::Cell tdd = run(tdd_spec);
    const auto report = [&](const std::string& spec, const bench::Cell& m) {
      std::string ratio = "-";
      if (spec != tdd_spec && tdd.ms && m.ms && *tdd.ms > 0.0) {
        ratio = format_fixed(*m.ms / *tdd.ms, 2) + "x";
      }
      std::cout << pad_right("d=" + std::to_string(density), 9) << pad_right(spec, 18)
                << pad_left(m.ms ? format_fixed(*m.ms, 1) : "-", 12)
                << pad_left(std::to_string(m.result.dim), 6)
                << pad_left(std::to_string(m.result.iterations), 7)
                << pad_left(std::to_string(m.peak_nodes), 10) << pad_left(ratio, 9) << "\n"
                << std::flush;
      json.add(m.record(cell + "/" + spec, 1, timeout_s));
    };
    report(tdd_spec, tdd);
    report("statevector", run("statevector"));
    report("sparse", run("sparse"));
  }
  return 0;
}
