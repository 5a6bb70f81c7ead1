#include "tn/partition.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/error.hpp"
#include "tn/index_graph.hpp"

namespace qts::tn {

using tdd::Edge;
using tdd::Level;

AdditionPartition addition_partition(tdd::Manager& mgr, const CircuitNetwork& net,
                                     std::size_t k) {
  require(k <= kMaxSlicedIndices, "addition partition limited to 2^20 slices");
  AdditionPartition part;
  part.sliced = IndexGraph::from_network(net).top_degree(k);
  std::sort(part.sliced.begin(), part.sliced.end());
  const std::size_t count = part.sliced.size();  // may be < k on tiny graphs

  for (std::size_t mask = 0; mask < (std::size_t{1} << count); ++mask) {
    AdditionSlice slice;
    slice.assignment.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      slice.assignment[i] = static_cast<int>((mask >> (count - 1 - i)) & 1u);
    }
    for (const auto& t : net.tensors) {
      Tensor cut = t;
      for (std::size_t i = 0; i < count; ++i) {
        if (cut.has_index(part.sliced[i])) {
          cut.edge = mgr.slice(cut.edge, part.sliced[i], slice.assignment[i]);
          cut.indices = minus_indices(cut.indices, {part.sliced[i]});
        }
      }
      slice.tensors.push_back(std::move(cut));
    }
    // Indicator literal per sliced index: keeps external sliced wires in the
    // slice's index set and makes the slice sum reconstruct the original.
    for (std::size_t i = 0; i < count; ++i) {
      const Level l = part.sliced[i];
      const cplx w0{slice.assignment[i] == 0 ? 1.0 : 0.0, 0.0};
      const cplx w1{slice.assignment[i] == 1 ? 1.0 : 0.0, 0.0};
      slice.tensors.push_back(Tensor{mgr.literal(l, w0, w1), {l}});
    }
    part.slices.push_back(std::move(slice));
  }
  return part;
}

std::vector<Block> contraction_partition(tdd::Manager& mgr, const CircuitNetwork& net,
                                         std::uint32_t k1, std::uint32_t k2,
                                         ExecutionContext* ctx) {
  require(k1 >= 1 && k2 >= 1, "contraction partition needs k1, k2 >= 1");

  // Assign every gate tensor to a (group, window) block per §V-B: groups are
  // bands of k1 qubit wires; a gate whose qubits span several bands is a
  // horizontally-cut gate, and after k2 of those a vertical cut starts a new
  // window.
  // A gate's body lives in the band of its first target qubit (its "home"
  // wire); a control or secondary-target wire reaching into another band is
  // the paper's horizontally-cut gate, with the shared index crossing the
  // cut (Fig. 3's CX gates).  The crossing test looks at every index the
  // tensor touches, controls included; after k2 crossings a vertical cut
  // starts a new window.
  require(net.home_qubits.size() == net.tensors.size(),
          "network lacks per-gate home qubits (not built by build_network?)");
  struct Assignment {
    std::uint32_t group;
    std::uint32_t window;
  };
  std::vector<Assignment> where(net.tensors.size());
  std::uint32_t window = 0;
  std::uint32_t cut_count = 0;
  for (std::size_t i = 0; i < net.tensors.size(); ++i) {
    std::uint32_t gmin = ~0u;
    std::uint32_t gmax = 0;
    for (Level l : net.tensors[i].indices) {
      const std::uint32_t g = tdd::level_qubit(l) / k1;
      gmin = std::min(gmin, g);
      gmax = std::max(gmax, g);
    }
    where[i] = {net.home_qubits[i] / k1, window};
    if (gmin != gmax) {
      if (++cut_count == k2) {
        ++window;
        cut_count = 0;
      }
    }
  }
  // A cut right after the last gate would open an empty trailing window;
  // count only windows that actually received a gate.
  std::uint32_t num_windows = 1;
  for (const auto& a : where) num_windows = std::max(num_windows, a.window + 1);
  const std::uint32_t num_bands = (net.num_qubits + k1 - 1) / k1;

  // Gather the gate tensors of each block, preserving circuit order.  Every
  // (window, band) cell of the grid becomes a block, as in Fig. 3 — cells
  // containing only wire segments yield the trivial tensor 1.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Tensor>> by_block;
  for (std::uint32_t w = 0; w < num_windows; ++w) {
    for (std::uint32_t g = 0; g < num_bands; ++g) by_block[{w, g}];
  }
  for (std::size_t i = 0; i < net.tensors.size(); ++i) {
    by_block[{where[i].window, where[i].group}].push_back(net.tensors[i]);
  }

  // An index may be summed inside a block only if no other block, and no
  // external wire, mentions it.
  std::unordered_map<Level, std::size_t> uses;
  for (const auto& t : net.tensors) {
    for (Level l : t.indices) uses[l] += 1;
  }
  for (Level l : net.external_indices()) uses[l] += 1;

  std::vector<Block> blocks;
  blocks.reserve(by_block.size());
  for (const auto& [key, tensors] : by_block) {
    if (ctx != nullptr) ctx->check_deadline();
    if (tensors.empty()) {
      Block b;
      b.window = key.first;
      b.group = key.second;
      b.tensor = Tensor{mgr.one(), {}};
      blocks.push_back(std::move(b));
      continue;
    }
    std::unordered_map<Level, std::size_t> inside;
    for (const auto& t : tensors) {
      for (Level l : t.indices) inside[l] += 1;
    }
    std::vector<Level> keep;
    for (const auto& [l, cnt] : inside) {
      if (uses.at(l) > cnt) keep.push_back(l);  // someone outside needs it
    }
    std::sort(keep.begin(), keep.end());
    Block b;
    b.window = key.first;
    b.group = key.second;
    b.tensor = contract_network(mgr, tensors, keep, ctx, OrderPolicy::kCaller);
    blocks.push_back(std::move(b));
  }
  // `by_block` is already ordered by (window, group) thanks to the map key.
  return blocks;
}

}  // namespace qts::tn
