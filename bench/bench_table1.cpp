/// \file bench_table1.cpp
/// Reproduction harness for Table I of the paper: image computation time
/// and maximum TDD node count for the basic algorithm, addition partition
/// (k = 1) and contraction partition (k1 = k2 = 4) over the Grover, QFT,
/// BV, GHZ and QRW circuit families.
///
/// Usage:
///   bench_table1 [--timeout S] [--family NAME]
///
/// Runs the paper's circuit sizes under its 3600 s per-cell timeout (the
/// whole table takes seconds here).  Cells that exceed the timeout print
/// '-', exactly like the paper; the paper's '-' cells of basic and addition
/// past 20 qubits are not attempted and print '-' too.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cell.hpp"
#include "common/strings.hpp"
#include "qts/workloads.hpp"

namespace {

using namespace qts;
using bench::Cell;

struct Row {
  std::string name;
  Cell basic, addition, contraction;
};

enum class Family { kGrover, kGroverD, kQft, kBv, kGhz, kQrw };

TransitionSystem make_system(tdd::Manager& mgr, Family f, std::uint32_t n) {
  switch (f) {
    case Family::kGrover: return make_grover_system(mgr, n);
    case Family::kGroverD: return make_grover_decomposed_system(mgr, n);
    case Family::kQft: return make_qft_system(mgr, n);
    case Family::kBv: return make_bv_system(mgr, n);
    case Family::kGhz: return make_ghz_system(mgr, n);
    case Family::kQrw: return make_qrw_system(mgr, n, 0.1, /*noisy=*/true, 0);
  }
  return make_ghz_system(mgr, n);
}

std::string fmt(const Cell& c) {
  if (!c.ms.has_value()) return pad_left("-", 10) + pad_left("-", 10);
  return pad_left(format_fixed(*c.ms / 1e3, 2), 10) + pad_left(std::to_string(c.peak_nodes), 10);
}

struct FamilyPlan {
  std::string prefix;
  Family family;
  std::vector<std::uint32_t> cheap_sizes;  // run with all three methods
  std::vector<std::uint32_t> big_sizes;    // contraction only (paper's '-' zone)
};

}  // namespace

int main(int argc, char** argv) {
  double timeout_s = 3600.0;
  std::string only_family;
  const auto fail_usage = [] {
    std::cerr << "usage: bench_table1 [--timeout S] [--family NAME]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeout") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], timeout_s)) return fail_usage();
    } else if (std::strcmp(argv[i], "--family") == 0 && i + 1 < argc) {
      only_family = argv[++i];
    } else {
      return fail_usage();
    }
  }

  // "GroverD" is the gate-level (Toffoli-decomposed MCX) Grover iteration —
  // the regime the paper's Grover rows live in; plain "Grover" keeps the
  // multi-controlled X as a single hyperedge tensor and stays compact for
  // every method.
  const std::vector<FamilyPlan> plans = {
      {"Grover", Family::kGrover, {15, 18, 20}, {40}},
      {"GroverD", Family::kGroverD, {15, 17, 19}, {41}},
      {"QFT", Family::kQft, {15, 18, 20}, {30, 50, 100}},
      {"BV", Family::kBv, {100, 200, 300, 400, 500}, {}},
      {"GHZ", Family::kGhz, {100, 200, 300, 400, 500}, {}},
      {"QRW", Family::kQrw, {15, 18, 20}, {30, 50, 100}},
  };

  bench::JsonWriter json("table1");
  const auto cell = [&](const std::string& row, Family f, std::uint32_t n,
                        const std::string& engine) {
    const Cell c = bench::run_cell(
        engine, [&](tdd::Manager& mgr) { return make_system(mgr, f, n); }, bench::image_job(),
        timeout_s);
    json.add(c.record(row + "/" + engine, 1, timeout_s));
    return c;
  };

  std::cout << "Table I — image computation: time [s] and max TDD nodes\n"
            << "(addition: k = 1; contraction: k1 = k2 = 4; timeout "
            << format_fixed(timeout_s, 0) << " s per cell; '-' = timeout)\n\n";
  std::cout << pad_right("Benchmark", 12) << pad_left("basic[s]", 10)
            << pad_left("#node", 10) << pad_left("add[s]", 10) << pad_left("#node", 10)
            << pad_left("cont[s]", 10) << pad_left("#node", 10) << "\n";
  std::cout << std::string(72, '-') << "\n";

  for (const auto& plan : plans) {
    if (!only_family.empty() && plan.prefix != only_family) continue;
    for (std::uint32_t n : plan.cheap_sizes) {
      Row row;
      row.name = plan.prefix + std::to_string(n);
      row.basic = cell(row.name, plan.family, n, "basic");
      row.addition = cell(row.name, plan.family, n, "addition:1");
      row.contraction = cell(row.name, plan.family, n, "contraction:4,4");
      std::cout << pad_right(row.name, 12) << fmt(row.basic) << fmt(row.addition)
                << fmt(row.contraction) << "\n"
                << std::flush;
    }
    for (std::uint32_t n : plan.big_sizes) {
      Row row;
      row.name = plan.prefix + std::to_string(n);
      // The paper's '-' zone: basic/addition are known to blow past the
      // timeout; only contraction is attempted.
      row.contraction = cell(row.name, plan.family, n, "contraction:4,4");
      std::cout << pad_right(row.name, 12) << fmt(Cell{}) << fmt(Cell{})
                << fmt(row.contraction) << "\n"
                << std::flush;
    }
    std::cout << std::string(72, '-') << "\n";
  }
  return 0;
}
