/// \file bench_parallel.cpp
/// Thread-count sweep of the parallel image engine on a multi-Kraus noise
/// workload: a Grover iteration composed with depolarizing channels, so the
/// Kraus family (4^noisy_qubits circuits) × the 2-dimensional invariant
/// basis yields plenty of independent Kraus×basis tasks to shard.
///
/// Usage:
///   bench_parallel [--n QUBITS] [--noisy-qubits Q] [--p PROB]
///                  [--threads LIST] [--timeout S]
///
/// Defaults: Grover11, depolarizing(0.05) on 2 qubits (16 Kraus circuits,
/// 32 tasks), threads 1,2,4,8.  Every row reports wall-clock time and
/// speedup versus the 1-thread row; a sequential reference row
/// (contraction:4,4, the partition the parallel engine shards, run with no
/// worker pool) is printed first.  Results land in BENCH_parallel.json.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_cell.hpp"
#include "circuit/noise.hpp"
#include "common/strings.hpp"
#include "qts/workloads.hpp"

namespace {

using namespace qts;

TransitionSystem make_noisy_grover(tdd::Manager& mgr, std::uint32_t n, double p,
                                   std::uint32_t noisy_qubits) {
  TransitionSystem sys = make_grover_system(mgr, n);
  std::vector<circ::Circuit> kraus = sys.operations.at(0).kraus;
  for (std::uint32_t q = 0; q < noisy_qubits; ++q) {
    kraus = circ::apply_channel(kraus, circ::depolarizing(p), q);
  }
  sys.operations.at(0).kraus = std::move(kraus);
  return sys;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 11;
  std::uint32_t noisy_qubits = 2;
  double p = 0.05;
  double timeout_s = 600.0;
  std::vector<std::size_t> threads{1, 2, 4, 8};
  const auto fail_usage = [] {
    std::cerr << "usage: bench_parallel [--n QUBITS] [--noisy-qubits Q] [--p PROB] "
                 "[--threads LIST] [--timeout S]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], n)) return fail_usage();
    } else if (std::strcmp(argv[i], "--noisy-qubits") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], noisy_qubits)) return fail_usage();
    } else if (std::strcmp(argv[i], "--p") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], p)) return fail_usage();
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], timeout_s)) return fail_usage();
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!bench::parse_counts("bench_parallel", argv[++i], threads)) return 1;
    } else {
      return fail_usage();
    }
  }

  const std::size_t kraus_count = std::size_t{1} << (2 * noisy_qubits);  // depol = 4 Kraus
  const std::string workload =
      "grover" + std::to_string(n) + "x" + std::to_string(kraus_count);
  std::cout << "Parallel image engine sweep — Grover" << n << " + depolarizing(" << p << ") on "
            << noisy_qubits << " qubit(s): " << kraus_count
            << " Kraus circuits\n\n";
  std::cout << pad_right("engine", 28) << pad_left("wall[ms]", 12) << pad_left("peak", 10)
            << pad_left("speedup", 10) << "\n";

  bench::JsonWriter json("parallel");
  const bench::SystemBuilder build = [&](tdd::Manager& mgr) {
    return make_noisy_grover(mgr, n, p, noisy_qubits);
  };
  const auto run = [&](const std::string& spec) {
    return bench::run_cell(spec, build, bench::image_job(), timeout_s);
  };
  const auto report = [&](const std::string& spec, std::size_t nthreads, const bench::Cell& m,
                          std::optional<double> base_ms) {
    std::string speedup = "-";
    if (m.ms && base_ms) speedup = format_fixed(*base_ms / *m.ms, 2) + "x";
    std::cout << pad_right(spec, 28) << pad_left(m.ms ? format_fixed(*m.ms, 1) : "-", 12)
              << pad_left(std::to_string(m.peak_nodes), 10) << pad_left(speedup, 10) << "\n"
              << std::flush;
    json.add(m.record(workload + "/" + spec, nthreads, timeout_s));
  };

  // Sequential reference: contraction:4,4 run directly in the parent
  // manager, no worker pool.
  const std::string sequential = "contraction:4,4";
  const bench::Cell seq = run(sequential);
  report(sequential, 1, seq, seq.ms);

  // Speedups are reported against parallel:1 when the sweep includes it,
  // falling back to the sequential reference otherwise.
  std::optional<double> base_ms = seq.ms;
  for (std::size_t t : threads) {
    const std::string spec = "parallel:" + std::to_string(t);
    const bench::Cell m = run(spec);
    if (t == 1 && m.ms) base_ms = m.ms;
    report(spec, t, m, base_ms);
  }
  return 0;
}
