/// Golden identity pins: fixed sequential jobs whose op-cache and
/// unique-table hit/miss counters and result projector bytes are pinned.
/// The op caches are lossy (an insert overwrites whatever held its slot),
/// but every key hashes nodes by arena id, never by address, so what is
/// found, recomputed or interned repeats exactly from run to run and from
/// manager to manager.  Any change to the memo tables, their sizes or their
/// hashes moves these numbers; a deliberate change must update the pins on
/// purpose.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "circuit/generators.hpp"
#include "circuit/noise.hpp"
#include "common/execution_context.hpp"
#include "qts/engine.hpp"
#include "qts/reachability.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"
#include "tdd/io.hpp"
#include "tdd/manager.hpp"

namespace qts {
namespace {

/// The RunStats cache counters, in field order.
struct Pins {
  std::size_t add_hits, add_misses, cont_hits, cont_misses, unique_hits, unique_misses;
};

void expect_counters(const RunStats& s, const Pins& p) {
  EXPECT_EQ(s.add_hits, p.add_hits);
  EXPECT_EQ(s.add_misses, p.add_misses);
  EXPECT_EQ(s.cont_hits, p.cont_hits);
  EXPECT_EQ(s.cont_misses, p.cont_misses);
  EXPECT_EQ(s.unique_hits, p.unique_hits);
  EXPECT_EQ(s.unique_misses, p.unique_misses);
}

TEST(GoldenIdentity, Ghz3BitFlipReachUnderContraction) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  const std::vector<circ::Circuit> kraus =
      circ::apply_channel({circ::make_ghz(3)}, circ::bit_flip(0.1), 0);
  const TransitionSystem sys{3, Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 0)}),
                             {QuantumOperation{"step", kraus}}};
  const std::unique_ptr<ImageComputer> engine = make_engine(mgr, "contraction:4,4", &ctx);
  const ReachabilityResult r = reachable_space(*engine, sys);
  const std::string text = tdd::save_string(r.space.projector());
  expect_counters(ctx.stats(), Pins{14, 108, 275, 360, 120, 176});
  EXPECT_EQ(text,
            "qtdd v1\n"
            "nodes 9\n"
            "0 3145727 -1 1 0 -1 0 0\n"
            "1 3145727 -1 0 0 -1 1 0\n"
            "2 2097152 0 1 0 1 1 0\n"
            "3 2097151 2 1 0 -1 0 0\n"
            "4 2097151 -1 0 0 2 1 0\n"
            "5 1048576 3 1 0 4 1 0\n"
            "6 1048575 5 1 0 -1 0 0\n"
            "7 1048575 -1 0 0 5 1 0\n"
            "8 0 6 1 0 7 1 0\n"
            "root 8 1 0\n");
}

TEST(GoldenIdentity, Qft8ImageUnderBasic) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_qft_system(mgr, 8);
  const std::unique_ptr<ImageComputer> engine = make_engine(mgr, "basic", &ctx);
  const Subspace image = engine->image(sys, sys.initial);
  const std::string text = tdd::save_string(image.projector());
  expect_counters(ctx.stats(), Pins{0, 56, 1082, 1880, 655, 971});
  // QFT|0...0> is the uniform superposition: its projector is the constant
  // 2^-8 over all 16 indices, a terminal edge.
  EXPECT_EQ(text,
            "qtdd v1\n"
            "nodes 0\n"
            "root -1 0.00390625 0\n");
}

TEST(GoldenIdentity, BitflipCodeReachUnderAddition) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  const TransitionSystem sys = make_bitflip_code_system(mgr);
  const std::unique_ptr<ImageComputer> engine = make_engine(mgr, "addition:2", &ctx);
  const ReachabilityResult r = reachable_space(*engine, sys);
  const std::string text = tdd::save_string(r.space.projector());
  EXPECT_EQ(r.space.dim(), 4u);
  expect_counters(ctx.stats(), Pins{18, 33, 353, 674, 359, 382});
  // The addition engine sums one push per slice, the one image path with an
  // accumulation loop.  Reduced TDDs are canonical, so the projector is the
  // same text contraction:4,4 reaches on this job in a fresh manager.
  tdd::Manager other;
  const std::unique_ptr<ImageComputer> contraction = make_engine(other, "contraction:4,4");
  EXPECT_EQ(tdd::save_string(
                reachable_space(*contraction, make_bitflip_code_system(other)).space.projector()),
            text);
  EXPECT_EQ(text,
            "qtdd v1\n"
            "nodes 18\n"
            "0 6291455 -1 1 0 -1 0 0\n"
            "1 5242880 0 1 0 -1 0 0\n"
            "2 5242879 1 1 0 -1 0 0\n"
            "3 4194304 2 1 0 -1 0 0\n"
            "4 4194303 3 1 0 -1 0 0\n"
            "5 3145728 4 1 0 -1 0 0\n"
            "6 3145727 5 1 0 -1 0 0\n"
            "7 3145727 -1 0 0 5 1 0\n"
            "8 2097152 6 1 0 7 1 0\n"
            "9 2097151 8 1 0 -1 0 0\n"
            "10 2097152 6 1 0 -1 0 0\n"
            "11 2097151 -1 0 0 10 1 0\n"
            "12 1048576 9 1 0 11 1 0\n"
            "13 1048575 12 1 0 -1 0 0\n"
            "14 2097151 10 1 0 -1 0 0\n"
            "15 1048576 14 1 0 -1 0 0\n"
            "16 1048575 -1 0 0 15 1 0\n"
            "17 0 13 1 0 16 1 0\n"
            "root 17 1 0\n");
}

TEST(Determinism, TwoManagersRunTheGhz9DepolFixpointAlike) {
  // GHZ9 with depolarising noise (p = 0.05) on qubits 0 and 1: 16 Kraus
  // circuits and a 512-dimensional fixpoint, enough churn for the op caches
  // to grow and overwrite.  Two fresh managers must count the same hits and
  // misses and save the same projector bytes.
  const auto run = [](RunStats& stats) {
    tdd::Manager mgr;
    ExecutionContext ctx;
    mgr.bind_context(&ctx);
    std::vector<circ::Circuit> kraus{circ::make_ghz(9)};
    for (std::uint32_t q = 0; q < 2; ++q) {
      kraus = circ::apply_channel(kraus, circ::depolarizing(0.05), q);
    }
    const TransitionSystem sys{9, Subspace::from_states(mgr, 9, {ket_basis(mgr, 9, 0)}),
                               {QuantumOperation{"ghz-depol", std::move(kraus)}}};
    const std::unique_ptr<ImageComputer> engine = make_engine(mgr, "contraction:4,4", &ctx);
    const ReachabilityResult r = reachable_space(*engine, sys);
    EXPECT_EQ(r.space.dim(), 512u);
    stats = ctx.stats();
    return tdd::save_string(r.space.projector());
  };
  RunStats first;
  RunStats second;
  const std::string first_text = run(first);
  const std::string second_text = run(second);
  EXPECT_GT(first.cont_misses, 16384u);
  expect_counters(second, Pins{first.add_hits, first.add_misses, first.cont_hits,
                               first.cont_misses, first.unique_hits, first.unique_misses});
  EXPECT_EQ(second_text, first_text);
}

}  // namespace
}  // namespace qts
