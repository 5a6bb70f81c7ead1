#include "qts/sparse_engine.hpp"

#include <string>

#include "common/error.hpp"

namespace qts {

void SparseRep::check_budget(const sim::SparseState& state) const {
  if (state.nonzeros() > max_nonzeros) {
    throw ResourceExhausted(Resource::kNonzeros,
                            "sparse engine: image support of " +
                                std::to_string(state.nonzeros()) + " non-zeros exceeds the " +
                                std::to_string(max_nonzeros) +
                                "-non-zero budget (raise it with sparse:<maxnz>)");
  }
}

sim::SparseState SparseRep::apply_circuit(const circ::Circuit& kraus, const sim::SparseState& ket,
                                          const ExecutionContext* ctx) const {
  sim::SparseState image = sim::apply_circuit(kraus, ket, ctx);
  check_budget(image);
  return image;
}

SparseImage::SparseImage(tdd::Manager& mgr, std::size_t max_nonzeros, ExecutionContext* ctx)
    : SeamImage(mgr, SparseRep{max_nonzeros}, ctx) {
  require(max_nonzeros >= 1, "sparse engine: non-zero budget must be at least 1");
}

}  // namespace qts
