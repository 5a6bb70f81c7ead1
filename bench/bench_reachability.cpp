/// \file bench_reachability.cpp
/// Frontier-shard thread sweep of the reachable-subspace fixpoint: each
/// iteration's frontier images run sharded across the worker pool when the
/// engine is `parallel:<t>`, and the Gram-Schmidt pass that extends the
/// accumulator runs on the caller's thread, so this sweep measures the
/// FixpointDriver's sharded path end to end, not just a single image() call.
///
/// Usage:
///   bench_reachability [--n QUBITS] [--p PROB] [--steps N]
///                      [--threads LIST] [--timeout S]
///
/// Defaults: the noisy quantum walk on a cycle (2 Kraus circuits, frontier
/// grows to the full 2^n space), n = 6, p = 0.1, threads 1,2,4,8.  A
/// sequential reference row (contraction:4,4, the partition the parallel
/// engine shards, run through the driver's sequential single-Gram-Schmidt
/// path) is printed first; every parallel row reports speedup against it
/// (or against parallel:1 when the sweep includes it).
///
/// Two last, fixed rows run contraction:4,4 on GHZ11 and GHZ12
/// with depolarising noise (p = 0.05) on qubits 0 and 1: 16 Kraus circuits,
/// wide frontiers and 2,048 / 4,096 Gram-Schmidt survivors, fixpoints of
/// about a second whose cost is mostly the projector's growth and the op
/// caches' churn.  Each reports the median of kGhzRepeats runs and their
/// spread (max − min).  Results land in BENCH_reachability.json.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_cell.hpp"
#include "circuit/generators.hpp"
#include "circuit/noise.hpp"
#include "common/strings.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"

namespace {

using namespace qts;

/// Repeats of each GHZ row; its wall time is their median.
constexpr std::size_t kGhzRepeats = 3;

/// GHZ-n preparation followed by depolarising noise (p = 0.05) on qubits 0
/// and 1, from |0…0⟩: qtsmc's `--noise depol:0.05:0 --noise depol:0.05:1`.
TransitionSystem noisy_ghz_system(tdd::Manager& mgr, std::uint32_t n) {
  std::vector<circ::Circuit> kraus{circ::make_ghz(n)};
  for (std::uint32_t q = 0; q < 2; ++q) {
    kraus = circ::apply_channel(kraus, circ::depolarizing(0.05), q);
  }
  return TransitionSystem{n, Subspace::from_states(mgr, n, {ket_basis(mgr, n, 0)}),
                          {QuantumOperation{"ghz-depol", std::move(kraus)}}};
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t n = 6;
  double p = 0.1;
  std::size_t steps = 64;
  double timeout_s = 600.0;
  std::vector<std::size_t> threads{1, 2, 4, 8};
  const auto fail_usage = [] {
    std::cerr << "usage: bench_reachability [--n QUBITS] [--p PROB] [--steps N] "
                 "[--threads LIST] [--timeout S]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], n)) return fail_usage();
    } else if (std::strcmp(argv[i], "--p") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], p)) return fail_usage();
    } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], steps)) return fail_usage();
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], timeout_s)) return fail_usage();
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      if (!bench::parse_counts("bench_reachability", argv[++i], threads)) return 1;
    } else {
      return fail_usage();
    }
  }

  const std::string workload = "qrw" + std::to_string(n);
  const bench::SystemBuilder qrw = [&](tdd::Manager& mgr) {
    return make_qrw_system(mgr, n, p, true, 0);
  };
  std::cout << "Sharded reachability sweep — noisy quantum walk, " << n << " qubits, p = " << p
            << "\n\n";
  std::cout << pad_right("engine", 28) << pad_left("wall[ms]", 12) << pad_left("dim", 6)
            << pad_left("iters", 7) << pad_left("peak", 10) << pad_left("speedup", 10)
            << pad_left("spread", 10) << "\n";

  bench::JsonWriter json("reachability");
  const bench::Job reach = bench::reach_job(steps);
  const auto report = [&](const std::string& name, std::size_t nthreads, const bench::Cell& m,
                          std::optional<double> base_ms) {
    std::string speedup = "-";
    if (m.ms && base_ms) speedup = format_fixed(*base_ms / *m.ms, 2) + "x";
    const std::string spread = m.repeats > 1 ? format_fixed(m.spread_ms, 1) : "-";
    std::cout << pad_right(name, 28) << pad_left(m.ms ? format_fixed(*m.ms, 1) : "-", 12)
              << pad_left(std::to_string(m.result.dim), 6)
              << pad_left(std::to_string(m.result.iterations), 7)
              << pad_left(std::to_string(m.peak_nodes), 10) << pad_left(speedup, 10)
              << pad_left(spread, 10) << "\n"
              << std::flush;
    json.add(m.record(name, nthreads, timeout_s));
  };

  // Sequential reference: contraction:4,4 run directly — the driver's
  // single-pass Gram-Schmidt path with no worker pool.
  const std::string sequential = "contraction:4,4";
  const bench::Cell seq = bench::run_cell(sequential, qrw, reach, timeout_s);
  report(workload + "/" + sequential, 1, seq, seq.ms);

  // Speedups are reported against parallel:1 when the sweep includes it,
  // falling back to the sequential reference otherwise.
  std::optional<double> base_ms = seq.ms;
  for (std::size_t t : threads) {
    const std::string spec = "parallel:" + std::to_string(t);
    const bench::Cell m = bench::run_cell(spec, qrw, reach, timeout_s);
    if (t == 1 && m.ms) base_ms = m.ms;
    report(workload + "/" + spec, t, m, base_ms);
  }

  for (const std::uint32_t qubits : {11U, 12U}) {
    const bench::SystemBuilder ghz = [qubits](tdd::Manager& mgr) {
      return noisy_ghz_system(mgr, qubits);
    };
    report("ghz" + std::to_string(qubits) + "-depol/" + sequential, 1,
           bench::run_cell(sequential, ghz, reach, timeout_s, kGhzRepeats), std::nullopt);
  }
  return 0;
}
