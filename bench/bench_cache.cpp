/// \file bench_cache.cpp
/// Cold-vs-warm timing of the content-addressed result cache: every workload
/// is run once against an empty on-disk cache (cold — the full reachability
/// fixpoint runs and the result is stored) and once against the populated
/// cache from a FRESH manager and a FRESH ResultCache object (warm — the
/// fixpoint is skipped and the stored basis and projector are rehydrated
/// through tdd::io and make_node, exactly the repeated-traffic path
/// `qtsmc --cache` serves).
///
/// Usage:
///   bench_cache [--steps N] [--qasm FILE] [--dir DIR]
///
/// The on-disk cache lives in a fresh subdirectory `bench_cache.<k>` of DIR
/// (default: the system temp directory), which the run creates empty and
/// removes at the end; nothing else in DIR is touched.
///
/// Workloads: the six library systems (GHZ, Bernstein–Vazirani, QFT, Grover,
/// noisy quantum walk, bit-flip code) plus an optional QASM circuit (defaults
/// to examples/ghz16.qasm when readable).  Results land in BENCH_cache.json:
/// each workload contributes a `<name>/cold` and a `<name>/warm` record, so
/// the JSON carries the speedup without needing a schema change.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_cell.hpp"
#include "circuit/qasm.hpp"
#include "common/strings.hpp"
#include "qts/result_cache.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"

namespace {

using namespace qts;

struct Workload {
  std::string name;
  bench::SystemBuilder make;
  std::size_t steps = 0;  ///< per-workload iteration cap (0 = the global --steps)
};

/// A new, empty subdirectory of `parent` (created if missing): the first
/// `bench_cache.<k>` that does not exist yet, so no earlier run's files and
/// nothing the caller keeps in `parent` is reused or removed.
std::filesystem::path fresh_cache_dir(const std::filesystem::path& parent) {
  std::filesystem::create_directories(parent);
  for (std::size_t k = 0;; ++k) {
    const std::filesystem::path dir = parent / ("bench_cache." + std::to_string(k));
    if (std::filesystem::create_directory(dir)) return dir;
  }
}

/// One reach job in a fresh manager against a fresh ResultCache over `dir`.
/// Only reachable_space is timed: system construction is identical cold
/// and warm and deliberately excluded, the way a long-running qtsmc batch
/// would amortise it.
bench::Cell run_once(const Workload& w, std::size_t steps, const std::string& dir) {
  ResultCache cache(dir);
  return bench::run_cell("contraction:4,4", w.make, bench::reach_job(steps, &cache), 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t steps = 64;
  std::string qasm_path = "examples/ghz16.qasm";
  std::string parent;
  const auto fail_usage = [] {
    std::cerr << "usage: bench_cache [--steps N] [--qasm FILE] [--dir DIR]\n";
    return 1;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      if (!bench::parse_number(argv[++i], steps)) return fail_usage();
    } else if (std::strcmp(argv[i], "--qasm") == 0 && i + 1 < argc) {
      qasm_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      parent = argv[++i];
    } else {
      return fail_usage();
    }
  }
  const std::string dir = fresh_cache_dir(parent.empty()
                                               ? std::filesystem::temp_directory_path()
                                               : std::filesystem::path(parent))
                              .string();

  std::vector<Workload> workloads{
      {"ghz6", [](tdd::Manager& m) { return make_ghz_system(m, 6); }},
      {"bv8", [](tdd::Manager& m) { return make_bv_system(m, 8); }},
      {"qft5", [](tdd::Manager& m) { return make_qft_system(m, 5); }},
      {"grover7", [](tdd::Manager& m) { return make_grover_system(m, 7); }},
      {"qrw6-noisy", [](tdd::Manager& m) { return make_qrw_system(m, 6, 0.1, true, 0); }},
      {"bitflip", [](tdd::Manager& m) { return make_bitflip_code_system(m); }},
  };
  // The example QASM circuit, when readable from the working directory.
  {
    std::ifstream in(qasm_path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      const std::string source = text.str();
      const std::string name =
          std::filesystem::path(qasm_path).stem().string() + "-qasm";
      // The 16-qubit example converges only after thousands of iterations;
      // a small cap keeps the cold run honest (a real fixpoint burst) and
      // the warm run still hits — the cap is part of the job key.
      workloads.push_back({name, [source](tdd::Manager& m) {
                             const circ::Circuit c = circ::from_qasm(source);
                             const std::uint32_t n = c.num_qubits();
                             return TransitionSystem{
                                 n, Subspace::from_states(m, n, {ket_basis(m, n, 0)}),
                                 {QuantumOperation{"step", {c}}}};
                           },
                           8});
    } else {
      std::cerr << "note: cannot read " << qasm_path << "; skipping the QASM workload\n";
    }
  }

  std::cout << "Result-cache cold vs warm — reach fixpoint, contraction:4,4, cache dir " << dir
            << "\n\n";
  std::cout << pad_right("workload", 14) << pad_left("cold[ms]", 12) << pad_left("warm[ms]", 12)
            << pad_left("dim", 6) << pad_left("speedup", 10) << pad_left("warm hit", 10) << "\n";

  bench::JsonWriter json("cache");
  int rc = 0;
  for (const auto& w : workloads) {
    const std::size_t cap = w.steps != 0 ? w.steps : steps;
    const bench::Cell cold = run_once(w, cap, dir);
    const bench::Cell warm = run_once(w, cap, dir);
    const bool hit = warm.cache_hits > 0;
    const double speedup = *warm.ms > 0 ? *cold.ms / *warm.ms : 0.0;
    std::cout << pad_right(w.name, 14) << pad_left(format_fixed(*cold.ms, 2), 12)
              << pad_left(format_fixed(*warm.ms, 2), 12)
              << pad_left(std::to_string(cold.result.dim), 6)
              << pad_left(format_fixed(speedup, 1) + "x", 10)
              << pad_left(hit ? "yes" : "NO", 10) << "\n"
              << std::flush;
    json.add(cold.record(w.name + "/cold", 1, 0.0));
    json.add(warm.record(w.name + "/warm", 1, 0.0));
    if (!hit || warm.result.dim != cold.result.dim) {
      std::cerr << "error: " << w.name << " warm run "
                << (!hit ? "missed the cache" : "changed the verdict") << "\n";
      rc = 1;
    }
  }
  std::filesystem::remove_all(dir);
  return rc;
}
