/// \file bench_ablation.cpp
/// Ablation studies for two encoding choices of the circuit-to-tensor
/// translation:
///
///  A. the §V-A hyperedge rule (reuse input indices for diagonal gates and
///     control wires) versus the naive fresh-output-index encoding, measured
///     by the peak TDD size of the monolithic contraction; and
///
///  B. multi-controlled X as a single hyperedge tensor versus the Toffoli
///     V-chain decomposition, measured on the Grover image computation —
///     this is the difference between our compact Grover rows and the
///     paper's exploding ones in Table I.
#include <iostream>

#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "qts/engine.hpp"
#include "circuit/generators.hpp"
#include "qts/workloads.hpp"
#include "tn/circuit_tensors.hpp"
#include "tn/contract.hpp"
#include "tn/index_graph.hpp"

namespace {

using namespace qts;

void ablation_hyperedges(bench::JsonWriter& json) {
  std::cout << "Ablation A — hyperedge index reuse (monolithic operator contraction)\n";
  std::cout << pad_right("circuit", 12) << pad_left("reuse peak", 12)
            << pad_left("naive peak", 12) << pad_left("reuse deg*", 12)
            << pad_left("naive deg*", 12) << "   (*max index-graph degree)\n";
  struct Case {
    std::string name;
    circ::Circuit circuit;
  };
  std::vector<Case> cases;
  cases.push_back({"QFT10", circ::make_qft(10)});
  cases.push_back({"QFT12", circ::make_qft(12)});
  cases.push_back({"GHZ64", circ::make_ghz(64)});
  cases.push_back({"Grover11", circ::make_grover_iteration(11)});
  cases.push_back({"QRW10", circ::make_qrw_step(10)});
  for (const auto& c : cases) {
    std::size_t peak[2];
    std::size_t deg[2];
    for (int naive = 0; naive < 2; ++naive) {
      tdd::Manager mgr;
      const tn::NetworkOptions opts{.reuse_indices = naive == 0};
      const auto net = tn::build_network(mgr, c.circuit, opts);
      ExecutionContext ctx;
      WallTimer timer;
      (void)tn::contract_network(mgr, net.tensors, net.external_indices(), &ctx);
      peak[naive] = ctx.stats().peak_nodes;
      json.add({"ablationA/" + c.name + (naive == 0 ? "/reuse" : "/naive"),
                timer.seconds() * 1e3, peak[naive], 1, false});
      const auto graph = tn::IndexGraph::from_network(net);
      std::size_t top = 0;
      for (auto v : graph.top_degree(1)) top = graph.degree(v);
      deg[naive] = top;
    }
    std::cout << pad_right(c.name, 12) << pad_left(std::to_string(peak[0]), 12)
              << pad_left(std::to_string(peak[1]), 12) << pad_left(std::to_string(deg[0]), 12)
              << pad_left(std::to_string(deg[1]), 12) << "\n";
  }
  std::cout << "\n";
}

void ablation_mcx(bench::JsonWriter& json) {
  std::cout << "Ablation B — MCX encoding on the Grover image (basic algorithm)\n";
  std::cout << pad_right("qubits", 8) << pad_left("primitive[s]", 14)
            << pad_left("peak", 10) << pad_left("decomposed[s]", 14) << pad_left("peak", 10)
            << "\n";
  for (std::uint32_t n : {9u, 11u, 13u, 15u}) {
    double secs[2];
    std::size_t peak[2];
    for (int dec = 0; dec < 2; ++dec) {
      tdd::Manager mgr;
      const TransitionSystem sys =
          dec == 0 ? make_grover_system(mgr, n) : make_grover_decomposed_system(mgr, n);
      const auto computer = make_engine(mgr, "basic");
      WallTimer timer;
      (void)computer->image(sys, sys.initial);
      secs[dec] = timer.seconds();
      peak[dec] = computer->stats().peak_nodes;
      json.add({"ablationB/grover" + std::to_string(n) + (dec == 0 ? "/primitive" : "/decomposed"),
                secs[dec] * 1e3, peak[dec], 1, false});
    }
    std::cout << pad_right(std::to_string(n), 8) << pad_left(format_fixed(secs[0], 4), 14)
              << pad_left(std::to_string(peak[0]), 10)
              << pad_left(format_fixed(secs[1], 4), 14)
              << pad_left(std::to_string(peak[1]), 10) << "\n";
  }
  std::cout << "\n";
}

void ablation_contraction_cache(bench::JsonWriter& json) {
  std::cout << "Ablation C — operation-cache effectiveness (QFT image, basic algorithm)\n";
  std::cout << pad_right("qubits", 8) << pad_left("add hit%", 10) << pad_left("cont hit%", 11)
            << pad_left("unique hit%", 13) << "\n";
  for (std::uint32_t n : {8u, 10u, 12u}) {
    ExecutionContext ctx;
    tdd::Manager mgr;
    mgr.bind_context(&ctx);
    const auto sys = make_qft_system(mgr, n);
    const auto computer = make_engine(mgr, "basic", &ctx);
    WallTimer timer;
    (void)computer->image(sys, sys.initial);
    json.add({"ablationC/qft" + std::to_string(n), timer.seconds() * 1e3,
              ctx.stats().peak_nodes, 1, false});
    const auto& s = ctx.stats();
    std::cout << pad_right(std::to_string(n), 8)
              << pad_left(format_fixed(hit_rate_pct(s.add_hits, s.add_misses), 1), 10)
              << pad_left(format_fixed(hit_rate_pct(s.cont_hits, s.cont_misses), 1), 11)
              << pad_left(format_fixed(hit_rate_pct(s.unique_hits, s.unique_misses), 1), 13)
              << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  qts::bench::JsonWriter json("ablation");
  ablation_hyperedges(json);
  ablation_mcx(json);
  ablation_contraction_cache(json);
  return 0;
}
