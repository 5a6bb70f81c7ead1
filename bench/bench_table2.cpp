/// \file bench_table2.cpp
/// Reproduction harness for Table II of the paper: image computation time of
/// the contraction-partition algorithm on GroverN as a function of the
/// partition parameters (k1, k2).
///
/// Usage:
///   bench_table2 [--full] [--primitive] [--n QUBITS] [--kmax K] [--timeout S]
///
/// Default: the gate-level (Toffoli-decomposed) Grover15 with k1, k2 ∈ 1..15
/// — exactly the paper's sweep; --full raises the timeout to the paper's
/// 3600 s; --primitive uses the compact hyperedge-MCX Grover instead.
#include <cstring>
#include <iostream>

#include "bench_cell.hpp"
#include "common/strings.hpp"
#include "qts/workloads.hpp"

int main(int argc, char** argv) {
  using namespace qts;

  std::uint32_t n = 15;
  std::uint32_t kmax = 15;
  double timeout_s = 60.0;
  bool primitive = false;
  const auto fail_usage = [] {
    std::cerr << "usage: bench_table2 [--full] [--primitive] [--n QUBITS] [--kmax K] "
                 "[--timeout S]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      timeout_s = 3600.0;
    } else if (std::strcmp(argv[i], "--primitive") == 0) {
      primitive = true;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], n)) return fail_usage();
    } else if (std::strcmp(argv[i], "--kmax") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], kmax)) return fail_usage();
    } else if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], timeout_s)) return fail_usage();
    } else {
      return fail_usage();
    }
  }

  bench::JsonWriter json("table2");
  const std::string workload =
      "grover" + std::to_string(n) + (primitive ? "" : "d");
  const bench::SystemBuilder build = [&](tdd::Manager& mgr) {
    return primitive ? make_grover_system(mgr, n) : make_grover_decomposed_system(mgr, n);
  };

  std::cout << "Table II — contraction partition on Grover" << n
            << (primitive ? " (hyperedge-primitive MCX)" : " (Toffoli-decomposed MCX)")
            << ": image time [s] per (k1, k2); '-' = timeout (" << format_fixed(timeout_s, 0)
            << " s)\n\n";
  std::cout << pad_right("k1\\k2", 7);
  for (std::uint32_t k2 = 1; k2 <= kmax; ++k2) {
    std::cout << pad_left(std::to_string(k2), 8);
  }
  std::cout << "\n";

  for (std::uint32_t k1 = 1; k1 <= kmax; ++k1) {
    std::cout << pad_right(std::to_string(k1), 7);
    for (std::uint32_t k2 = 1; k2 <= kmax; ++k2) {
      const std::string spec = "contraction:" + std::to_string(k1) + "," + std::to_string(k2);
      const bench::Cell c = bench::run_cell(spec, build, bench::image_job(), timeout_s);
      json.add(c.record(workload + "/" + spec, 1, timeout_s));
      std::cout << pad_left(c.ms ? format_fixed(*c.ms / 1e3, 3) : "-", 8) << std::flush;
    }
    std::cout << "\n";
  }
  return 0;
}
