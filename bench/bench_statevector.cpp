/// \file bench_statevector.cpp
/// TDD-vs-dense crossover sweep: the reachable-subspace fixpoint of the
/// noisy quantum walk, run with a TDD engine and with the statevector
/// oracle engine at increasing register widths.  The dense engine pays
/// O(2^n) per Kraus application regardless of structure while the TDD
/// engines pay for the diagram sizes the workload actually produces, so the
/// sweep locates the width where the TDD representation starts winning —
/// the operating envelope of the dense backend as a fallback.
///
/// Usage:
///   bench_statevector [--nmin N] [--nmax N] [--p PROB] [--steps N]
///                     [--timeout S]
///
/// Defaults: n = 3..8, p = 0.1, TDD reference engine contraction:4,4,
/// 64-step cap, 60 s budget per cell.  Results land in
/// BENCH_statevector.json.
#include <cstring>
#include <iostream>
#include <string>

#include "bench_cell.hpp"
#include "common/strings.hpp"
#include "qts/workloads.hpp"

int main(int argc, char** argv) {
  using namespace qts;

  std::uint32_t nmin = 3;
  std::uint32_t nmax = 8;
  double p = 0.1;
  std::size_t steps = 64;
  double timeout_s = 60.0;
  const std::string tdd_spec = "contraction:4,4";
  const auto fail_usage = [] {
    std::cerr << "usage: bench_statevector [--nmin N] [--nmax N] [--p PROB] [--steps N] "
                 "[--timeout S]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nmin") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], nmin)) return fail_usage();
    } else if (std::strcmp(argv[i], "--nmax") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], nmax)) return fail_usage();
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
  if (nmin < 2) nmin = 2;

  std::cout << "TDD vs dense crossover — noisy quantum walk fixpoint, p = " << p
            << ", TDD engine " << tdd_spec << "\n\n";
  std::cout << pad_right("workload", 10) << pad_right("engine", 18) << pad_left("wall[ms]", 12)
            << pad_left("dim", 6) << pad_left("iters", 7) << pad_left("peak", 10)
            << pad_left("dense/tdd", 11) << "\n";

  bench::JsonWriter json("statevector");
  const bench::Job reach = bench::reach_job(steps);
  for (std::uint32_t n = nmin; n <= nmax; ++n) {
    const std::string workload = "qrw" + std::to_string(n);
    const bench::SystemBuilder qrw = [&](tdd::Manager& mgr) {
      return make_qrw_system(mgr, n, p, true, 0);
    };
    const bench::Cell tdd = bench::run_cell(tdd_spec, qrw, reach, timeout_s);
    const bench::Cell dense = bench::run_cell("statevector", qrw, reach, timeout_s);
    const auto report = [&](const std::string& spec, const bench::Cell& m,
                            const std::string& ratio) {
      std::cout << pad_right(workload, 10) << pad_right(spec, 18)
                << pad_left(m.ms ? format_fixed(*m.ms, 1) : "-", 12)
                << pad_left(std::to_string(m.result.dim), 6)
                << pad_left(std::to_string(m.result.iterations), 7)
                << pad_left(std::to_string(m.peak_nodes), 10) << pad_left(ratio, 11) << "\n"
                << std::flush;
      json.add(m.record(workload + "/" + spec, 1, timeout_s));
    };
    std::string ratio = "-";
    if (tdd.ms && dense.ms && *tdd.ms > 0.0) ratio = format_fixed(*dense.ms / *tdd.ms, 2) + "x";
    report(tdd_spec, tdd, "-");
    report("statevector", dense, ratio);
  }
  return 0;
}
