/// Tests for the content-addressed persistent result cache (qts/result_cache)
/// and its batch-mode usage pattern: many jobs over one shared manager with
/// the in-memory memo in front of the disk store.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/execution_context.hpp"
#include "common/fault.hpp"
#include "qts/backward.hpp"
#include "qts/reachability.hpp"
#include "qts/result_cache.hpp"
#include "qts/states.hpp"
#include "qts/workloads.hpp"
#include "tdd/io.hpp"

namespace qts {
namespace {

/// Fresh (removed) per-test scratch directory under gtest's TempDir.
std::string scratch_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "qts_result_cache_" + name;
  std::filesystem::remove_all(d);
  return d;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

TEST(JobKey, HexIsThirtyTwoLowercaseHexChars) {
  tdd::Manager mgr;
  const auto sys = make_ghz_system(mgr, 3);
  const std::string hex = job_key(sys, "reach", mgr.zero(), 64).hex();
  ASSERT_EQ(hex.size(), 32u);
  for (char c : hex) {
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c)) || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(JobKey, GoldenKeysArePinned) {
  // Keys of two fixed jobs, pinned: canonical_job_text embeds tdd::save and
  // the circuit matrices at 17 digits, so a formatter change that moved
  // these would silently orphan every on-disk cache.
  tdd::Manager mgr;
  const auto ghz = make_ghz_system(mgr, 3);
  EXPECT_EQ(job_key(ghz, "reach", mgr.zero(), 20).hex(), "05efc69ed97f9373c9e253d36488c4ab");
  const auto grover = make_grover_system(mgr, 3);
  EXPECT_EQ(job_key(grover, "invar", grover.initial.projector(), 10).hex(),
            "b404c161cae4f4a1988545cac972b73b");
}

TEST(JobKey, CanonicalAcrossManagers) {
  // The canonical job text depends only on the job, not on which manager
  // built it — TDD canonicity makes the projector serialisations equal.
  tdd::Manager a;
  tdd::Manager b;
  const auto sys_a = make_qrw_system(a, 3, 0.3, true, 0);
  const auto sys_b = make_qrw_system(b, 3, 0.3, true, 0);
  EXPECT_EQ(canonical_job_text(sys_a, "reach", a.zero(), 64),
            canonical_job_text(sys_b, "reach", b.zero(), 64));
  EXPECT_EQ(job_key(sys_a, "reach", a.zero(), 64), job_key(sys_b, "reach", b.zero(), 64));
}

TEST(JobKey, CoversEverythingThatCanChangeTheVerdict) {
  tdd::Manager mgr;
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const JobKey base = job_key(sys, "reach", mgr.zero(), 64);
  // Step cap, property kind and property projector each perturb the key.
  EXPECT_FALSE(base == job_key(sys, "reach", mgr.zero(), 63));
  EXPECT_FALSE(base == job_key(sys, "invar", mgr.zero(), 64));
  EXPECT_FALSE(base == job_key(sys, "reach", sys.initial.projector(), 64));
  // So does any change to the dynamics (here: the noise probability)...
  const auto other_noise = make_qrw_system(mgr, 3, 0.4, true, 0);
  EXPECT_FALSE(base == job_key(other_noise, "reach", mgr.zero(), 64));
  // ...or to the initial subspace.
  TransitionSystem shifted = sys;
  shifted.initial = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 1)});
  EXPECT_FALSE(base == job_key(shifted, "reach", mgr.zero(), 64));
}

TEST(ResultCache, MemoryOnlyHitSkipsTheFixpointBitIdentically) {
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  ResultCache cache;  // memory-only

  const auto cold = reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_misses, 1u);
  EXPECT_EQ(computer.stats().cache_stores, 1u);
  EXPECT_EQ(cache.memo_entries(), 1u);
  EXPECT_TRUE(cache.path_for(job_key(sys, "reach", mgr.zero(), 20)).empty());

  const auto warm = reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 1u);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.converged, cold.converged);
  // Bit-identical: the canonical rebuild re-interns the exact same nodes, so
  // the warm projector is pointer-equal with bit-equal weights.
  const tdd::Edge pc = cold.space.projector();
  const tdd::Edge pw = warm.space.projector();
  EXPECT_EQ(pw.node, pc.node);
  EXPECT_EQ(std::memcmp(&pw.weight, &pc.weight, sizeof pw.weight), 0);
}

TEST(ResultCache, DiskHitAcrossProcessesIsBitIdenticalToAColdRun) {
  const std::string dir = scratch_dir("disk_hit");
  const JobKey key = [] {
    tdd::Manager probe;
    const auto sys = make_qrw_system(probe, 3, 0.3, true, 0);
    return job_key(sys, "reach", probe.zero(), 32);
  }();

  // "Process" 1: cold run populates the store.
  {
    tdd::Manager mgr;
    ContractionImage computer(mgr, 2, 2);
    const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
    ResultCache cache(dir);
    (void)reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
    EXPECT_TRUE(std::filesystem::exists(cache.path_for(key)));
  }

  // "Process" 2: a fresh manager and a fresh ResultCache over the same
  // directory.  The warm result must match a cold run in THIS manager bit
  // for bit (pointer-equal projector, bit-equal weights).
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const auto cold = reachable_space(computer, sys, 32);  // no cache: reference
  ResultCache cache(dir);
  const auto warm = reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 1u);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.converged, cold.converged);
  EXPECT_EQ(warm.space.dim(), cold.space.dim());
  const tdd::Edge pc = cold.space.projector();
  const tdd::Edge pw = warm.space.projector();
  EXPECT_EQ(pw.node, pc.node);
  EXPECT_EQ(std::memcmp(&pw.weight, &pc.weight, sizeof pw.weight), 0);
  EXPECT_EQ(tdd::save_string(pw), tdd::save_string(pc));
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, InvariantVerdictRoundTrips) {
  const std::string dir = scratch_dir("invar");
  // Claim: GHZ dynamics stay inside span{|000⟩}.  False after one step.
  {
    tdd::Manager mgr;
    BasicImage computer(mgr);
    const auto sys = make_ghz_system(mgr, 3);
    const Subspace claim = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 0)});
    ResultCache cache(dir);
    const auto cold = check_invariant(computer, sys, claim, 10, nullptr, nullptr, &cache);
    EXPECT_FALSE(cold.holds);
    EXPECT_EQ(computer.stats().cache_stores, 1u);
  }
  tdd::Manager mgr;
  BasicImage computer(mgr);
  const auto sys = make_ghz_system(mgr, 3);
  const Subspace claim = Subspace::from_states(mgr, 3, {ket_basis(mgr, 3, 0)});
  ResultCache cache(dir);
  const auto warm = check_invariant(computer, sys, claim, 10, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 1u);
  EXPECT_FALSE(warm.holds);
  EXPECT_EQ(warm.iterations, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, BackwardJobsNeverCollideWithForwardOnes) {
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  ResultCache cache;
  (void)reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  // The backward key covers the ADJOINTED system, so this must be a miss.
  (void)backward_reachable(computer, sys, sys.initial, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 0u);
  EXPECT_EQ(computer.stats().cache_misses, 2u);
  EXPECT_EQ(cache.memo_entries(), 2u);
  // Re-running each is now a hit.
  (void)reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  (void)backward_reachable(computer, sys, sys.initial, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 2u);
}

TEST(ResultCache, VersionBumpedRecordsMiss) {
  const std::string dir = scratch_dir("version");
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 20);
  {
    ResultCache cache(dir);
    (void)reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
    ASSERT_TRUE(std::filesystem::exists(cache.path_for(key)));
  }
  ResultCache reader(dir);
  const std::string text = slurp(reader.path_for(key));
  ASSERT_EQ(text.rfind("qtsres v2\n", 0), 0u);
  // Any other version — a later one, or a v1 record from before the basis
  // was stored — is a miss, never a misread.
  for (const char* other : {"qtsres v3", "qtsres v1"}) {
    std::string bumped = text;
    bumped.replace(0, 9, other);
    spit(reader.path_for(key), bumped);
    ResultCache fresh(dir);
    EXPECT_FALSE(fresh.lookup(key, mgr, 3, "reach").has_value()) << other;
  }
  std::filesystem::remove_all(dir);
}

/// Same structure and bit-equal weights (memcmp, so the sign of zero
/// counts), walking both diagrams in step.  With `as_saved`, a zero
/// component compares unsigned: a record writes every zero as 0, so that is
/// all of a weight a diagram parsed from it can keep.
bool bit_identical(const tdd::Edge& a, const tdd::Edge& b, bool as_saved = false) {
  const auto bits = [as_saved](const cplx& w) {
    const auto unsigned_zero = [](double v) { return v == 0.0 ? 0.0 : v; };
    return as_saved ? cplx{unsigned_zero(w.real()), unsigned_zero(w.imag())} : w;
  };
  const cplx wa = bits(a.weight);
  const cplx wb = bits(b.weight);
  if (std::memcmp(&wa, &wb, sizeof wa) != 0) return false;
  if (a.node == nullptr || b.node == nullptr) return a.node == b.node;
  return a.node->level() == b.node->level() &&
         bit_identical(a.node->low(), b.node->low(), as_saved) &&
         bit_identical(a.node->high(), b.node->high(), as_saved);
}

TEST(ResultCache, HitServesTheColdRunsBasisAndProjector) {
  // Same manager: the hit is pointer-equal to the cold run, basis vector by
  // basis vector — the stored basis, not one re-derived from P.
  {
    tdd::Manager mgr;
    ContractionImage computer(mgr, 2, 2);
    const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
    ResultCache cache;
    const auto cold = reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
    const auto warm = reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
    ASSERT_EQ(computer.stats().cache_hits, 1u);
    ASSERT_EQ(warm.space.dim(), cold.space.dim());
    EXPECT_EQ(warm.space.projector().node, cold.space.projector().node);
    EXPECT_TRUE(bit_identical(warm.space.projector(), cold.space.projector()));
    for (std::size_t i = 0; i < cold.space.dim(); ++i) {
      EXPECT_EQ(warm.space.basis()[i].node, cold.space.basis()[i].node) << i;
      EXPECT_TRUE(bit_identical(warm.space.basis()[i], cold.space.basis()[i])) << i;
    }
  }
  // Fresh managers and cache objects: bit-equal weights throughout, up to
  // the sign of zero, which the record does not keep.  (The managers are
  // empty before the lookup: a manager that already holds tolerance-equal
  // nodes re-interns onto those, signs of zero included.)
  const std::string dir = scratch_dir("bit_identity");
  tdd::Manager cold_mgr;
  ContractionImage cold_computer(cold_mgr, 2, 2);
  const auto cold_sys = make_ghz_system(cold_mgr, 4);
  const JobKey key = job_key(cold_sys, "reach", cold_mgr.zero(), 20);
  const auto cold = [&] {
    ResultCache cache(dir);
    return reachable_space(cold_computer, cold_sys, 20, nullptr, nullptr, &cache);
  }();
  for (int round = 0; round < 2; ++round) {
    tdd::Manager mgr;
    ResultCache cache(dir);
    const auto warm = cache.lookup(key, mgr, 4, "reach");
    ASSERT_TRUE(warm.has_value());
    ASSERT_EQ(warm->space.dim(), cold.space.dim());
    EXPECT_EQ(warm->iterations, cold.iterations);
    EXPECT_TRUE(bit_identical(warm->space.projector(), cold.space.projector(), true));
    for (std::size_t i = 0; i < cold.space.dim(); ++i) {
      EXPECT_TRUE(bit_identical(warm->space.basis()[i], cold.space.basis()[i], true)) << i;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, InconsistentOrTruncatedBasisSectionsMiss) {
  const std::string dir = scratch_dir("basis");
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 20);
  ResultCache writer(dir);
  const auto cold = reachable_space(computer, sys, 20, nullptr, nullptr, &writer);
  const std::string path = writer.path_for(key);
  const std::string good = slurp(path);
  const std::string dim_line = "dim " + std::to_string(cold.space.dim()) + "\n";
  const std::string basis_line = "basis " + std::to_string(cold.space.dim()) + "\n";
  const std::size_t basis_at = good.find(basis_line);
  ASSERT_NE(basis_at, std::string::npos);
  ASSERT_NE(good.find(dim_line), std::string::npos);

  const auto hits = [&](const std::string& text) {
    spit(path, text);
    ResultCache reader(dir);
    return reader.lookup(key, mgr, 3, "reach").has_value();
  };
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string t = good;
    t.replace(t.find(from), from.size(), to);
    return t;
  };
  const std::string more = std::to_string(cold.space.dim() + 1) + "\n";
  const std::string fewer = std::to_string(cold.space.dim() - 1) + "\n";
  EXPECT_FALSE(hits(replaced(basis_line, "basis " + more)));  // count > dim
  EXPECT_FALSE(hits(replaced(basis_line, "basis " + fewer)));  // count < dim
  EXPECT_FALSE(hits(replaced(dim_line, "dim " + fewer)));      // dim line disagrees
  // A projector whose trace is not the dimension (here: the zero projector).
  const std::size_t proj_at = good.find("projector\n") + 10;
  EXPECT_FALSE(hits(good.substr(0, proj_at) + "qtdd v1\nnodes 0\nroot -1 0 0\n" +
                    good.substr(basis_at)));
  // Every truncation inside the basis section, up to a cut-off "end"
  // trailer (only its final newline may go).
  for (std::size_t len = basis_at; len + 1 < good.size(); len += 3) {
    EXPECT_FALSE(hits(good.substr(0, len))) << "prefix of length " << len;
  }
  EXPECT_FALSE(hits(good.substr(0, good.size() - 2)));
  EXPECT_TRUE(hits(good));
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, ConcurrentStoresOfOneKeyPublishAHit) {
  // Four threads of one process store the same key at once: each writes its
  // own tmp file, every rename succeeds, and the published record hits.
  const std::string dir = scratch_dir("concurrent");
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 20);
  const auto cold = reachable_space(computer, sys, 20);
  ResultCache cache(dir);
  std::atomic<int> persisted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int rep = 0; rep < 8; ++rep) {
        if (cache.store(key, "reach", cold.space, cold.iterations, cold.converged, true)) {
          persisted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(persisted.load(), 32);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".qtsres") << entry.path();  // no tmp left behind
    ++files;
  }
  EXPECT_EQ(files, 1u);
  ResultCache reader(dir);
  const auto hit = reader.lookup(key, mgr, 3, "reach");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->space.projector().node, cold.space.projector().node);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptTruncatedOrMismatchedRecordsMissNeverThrow) {
  const std::string dir = scratch_dir("corrupt");
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 20);
  ResultCache writer(dir);
  (void)reachable_space(computer, sys, 20, nullptr, nullptr, &writer);
  const std::string path = writer.path_for(key);
  const std::string good = slurp(path);
  ASSERT_FALSE(good.empty());

  // A fresh ResultCache per probe (the memo would otherwise mask the file).
  const auto probe = [&](const std::string& text) {
    spit(path, text);
    ResultCache reader(dir);
    return reader.lookup(key, mgr, 3, "reach").has_value();
  };
  EXPECT_FALSE(probe(""));                              // empty file
  EXPECT_FALSE(probe("garbage\n"));                     // not a record at all
  EXPECT_FALSE(probe(good.substr(0, good.size() / 2)))  // truncated mid-projector
      << "truncated record must be a miss";
  {
    std::string corrupted = good;
    corrupted[good.size() - 5] = 'x';  // corrupt the projector blob
    EXPECT_FALSE(probe(corrupted));
  }
  // Wrong property kind / register width against an intact record.
  spit(path, good);
  {
    ResultCache reader(dir);
    EXPECT_FALSE(reader.lookup(key, mgr, 3, "invar").has_value());
  }
  {
    ResultCache reader(dir);
    EXPECT_FALSE(reader.lookup(key, mgr, 4, "reach").has_value());
  }
  // And the intact record still hits.
  {
    ResultCache reader(dir);
    EXPECT_TRUE(reader.lookup(key, mgr, 3, "reach").has_value());
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, StoreDegradesToMemoWhenDirectoryVanishes) {
  const std::string dir = scratch_dir("vanish");
  tdd::Manager mgr;
  ContractionImage computer(mgr, 2, 2);
  const auto sys = make_ghz_system(mgr, 3);
  ResultCache cache(dir);
  // Yank the directory out from under the cache: every store now fails to
  // persist, but the job must still succeed and the memo must still serve.
  std::filesystem::remove_all(dir);
  const auto cold = reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 20);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for(key)));
  const auto warm = reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 1u);
  EXPECT_EQ(warm.space.projector().node, cold.space.projector().node);
}

TEST(ResultCache, ConstructorRejectsAPathThatIsAFile) {
  const std::string path = scratch_dir("not_a_dir");
  spit(path, "occupied\n");
  EXPECT_THROW(ResultCache{path}, InvalidArgument);
  std::filesystem::remove(path);
}

TEST(ResultCache, InjectedFaultsNeverPoisonTheStore) {
  const std::string dir = scratch_dir("fault");
  tdd::Manager mgr;
  ExecutionContext ctx;
  ctx.set_fault_plan(FaultPlan::parse("nodes@iter2"));
  mgr.bind_context(&ctx);
  ContractionImage computer(mgr, 2, 2, &ctx);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  ResultCache cache(dir);
  EXPECT_THROW((void)reachable_space(computer, sys, 32, nullptr, nullptr, &cache),
               ResourceExhausted);
  // The run died mid-fixpoint: nothing may have been stored or memoised.
  EXPECT_EQ(cache.memo_entries(), 0u);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 32);
  EXPECT_FALSE(std::filesystem::exists(cache.path_for(key)));
  EXPECT_FALSE(cache.lookup(key, mgr, 3, "reach").has_value());
  EXPECT_EQ(ctx.stats().cache_stores, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Batch, SharedManagerMemoMakesDuplicateJobsFree) {
  // The batch pattern: one manager, one cache, many jobs.  A duplicate job
  // hits even under a DIFFERENT engine — the spec is not part of the key.
  tdd::Manager mgr;
  ResultCache cache;  // the always-on memo, no disk
  const auto sys = make_ghz_system(mgr, 3);

  ContractionImage contraction(mgr, 2, 2);
  const auto cold = reachable_space(contraction, sys, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(contraction.stats().cache_misses, 1u);

  BasicImage basic(mgr);
  const auto warm = reachable_space(basic, sys, 20, nullptr, nullptr, &cache);
  EXPECT_EQ(basic.stats().cache_hits, 1u);
  EXPECT_EQ(warm.space.projector().node, cold.space.projector().node);
  EXPECT_EQ(cache.memo_entries(), 1u);
}

TEST(Batch, MemoSurvivesManagerGcBetweenJobs) {
  // The memo's decoded subspace is not a GC root, so a later job's
  // mark-sweep collection may sweep it; the memo keeps the record TEXT too,
  // and gc() moves the manager to a new generation, so the hit parses.
  tdd::Manager mgr;
  ResultCache cache;
  JobKey key;
  {
    ContractionImage computer(mgr, 2, 2);
    const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
    key = job_key(sys, "reach", mgr.zero(), 32);
    (void)reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
  }
  // Simulate the next job's GC pressure: collect with NO roots — every node
  // of the first job's result is swept.
  const std::size_t swept = mgr.gc({});
  EXPECT_GT(swept, 0u);
  // The memo still serves, rebuilding the projector from the text.
  const auto hit = cache.lookup(key, mgr, 3, "reach");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->converged);
  EXPECT_EQ(hit->space.dim(), 8u);  // noisy walk saturates coin ⊗ position
}

/// Unique-table probes (hits + misses) `ctx` has counted: zero for a hit
/// served from the memo's decoded subspace, one per node for a parse.
std::size_t unique_probes(const ExecutionContext& ctx) {
  return ctx.stats().unique_hits + ctx.stats().unique_misses;
}

/// Every node and weight of `got` is the one in `want` (same manager); with
/// `as_saved` (`got` was parsed from a record), up to the sign of zero in
/// its root weights.
void expect_node_identical(const Subspace& got, const Subspace& want, bool as_saved = false) {
  ASSERT_EQ(got.dim(), want.dim());
  EXPECT_EQ(&got.manager(), &want.manager());
  EXPECT_EQ(got.projector().node, want.projector().node);
  EXPECT_TRUE(bit_identical(got.projector(), want.projector(), as_saved));
  for (std::size_t i = 0; i < want.dim(); ++i) {
    EXPECT_EQ(got.basis()[i].node, want.basis()[i].node) << i;
    EXPECT_TRUE(bit_identical(got.basis()[i], want.basis()[i], as_saved)) << i;
  }
}

TEST(MemoDecoded, SameManagerHitTouchesNoUniqueTable) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  ContractionImage computer(mgr, 2, 2, &ctx);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 32);
  ResultCache cache;
  const auto cold = reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
  for (int round = 0; round < 2; ++round) {
    const std::size_t before = unique_probes(ctx);
    const auto hit = cache.lookup(key, mgr, 3, "reach");
    EXPECT_EQ(unique_probes(ctx), before) << "round " << round;
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->iterations, cold.iterations);
    EXPECT_EQ(hit->converged, cold.converged);
    expect_node_identical(hit->space, cold.space);
  }
}

TEST(MemoDecoded, HitAfterGcParsesTheText) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  ContractionImage computer(mgr, 2, 2, &ctx);
  const auto sys = make_qrw_system(mgr, 3, 0.3, true, 0);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 32);
  ResultCache cache;
  const auto cold = reachable_space(computer, sys, 32, nullptr, nullptr, &cache);
  std::vector<tdd::Edge> roots = cold.space.basis();
  roots.push_back(cold.space.projector());
  const std::uint64_t before_gc = mgr.generation();
  (void)mgr.gc(roots);
  EXPECT_NE(mgr.generation(), before_gc);

  std::size_t before = unique_probes(ctx);
  const auto parsed = cache.lookup(key, mgr, 3, "reach");
  EXPECT_GT(unique_probes(ctx), before);  // a new generation: the text is parsed
  ASSERT_TRUE(parsed.has_value());
  expect_node_identical(parsed->space, cold.space);
  // What it parsed is memoised for this generation.
  before = unique_probes(ctx);
  const auto again = cache.lookup(key, mgr, 3, "reach");
  EXPECT_EQ(unique_probes(ctx), before);
  ASSERT_TRUE(again.has_value());
  expect_node_identical(again->space, cold.space);
}

TEST(MemoDecoded, SecondManagerParsesIntoItself) {
  tdd::Manager first;
  ContractionImage computer(first, 2, 2);
  const auto sys = make_ghz_system(first, 4);
  const JobKey key = job_key(sys, "reach", first.zero(), 20);
  ResultCache cache;
  const auto cold = reachable_space(computer, sys, 20, nullptr, nullptr, &cache);

  tdd::Manager second;
  EXPECT_NE(second.generation(), first.generation());
  const auto hit = cache.lookup(key, second, 4, "reach");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(&hit->space.manager(), &second);
  ASSERT_EQ(hit->space.dim(), cold.space.dim());
  EXPECT_TRUE(bit_identical(hit->space.projector(), cold.space.projector(), true));
  EXPECT_GT(second.live_nodes(), 0u);
  // The first manager is still served right after the second took over the
  // memo entry: its own generation no longer matches, so it parses too.
  const auto back = cache.lookup(key, first, 4, "reach");
  ASSERT_TRUE(back.has_value());
  expect_node_identical(back->space, cold.space, true);
}

TEST(MemoDecoded, PropertyOrWidthMismatchMisses) {
  tdd::Manager mgr;
  ExecutionContext ctx;
  mgr.bind_context(&ctx);
  ContractionImage computer(mgr, 2, 2, &ctx);
  const auto sys = make_ghz_system(mgr, 3);
  const JobKey key = job_key(sys, "reach", mgr.zero(), 20);
  ResultCache cache;
  (void)reachable_space(computer, sys, 20, nullptr, nullptr, &cache);
  const std::size_t before = unique_probes(ctx);
  EXPECT_FALSE(cache.lookup(key, mgr, 3, "invar").has_value());
  EXPECT_FALSE(cache.lookup(key, mgr, 4, "reach").has_value());
  EXPECT_EQ(unique_probes(ctx), before);  // decided on the decoded entry
  EXPECT_TRUE(cache.lookup(key, mgr, 3, "reach").has_value());
}

TEST(Batch, ManyJobsAccumulateIndependentEntries) {
  // A small "batch file" worth of distinct jobs over one shared manager:
  // every job lands its own entry, every re-run hits, verdicts are stable.
  tdd::Manager mgr;
  ResultCache cache;
  ContractionImage computer(mgr, 2, 2);

  const auto ghz = make_ghz_system(mgr, 3);
  const auto walk = make_qrw_system(mgr, 3, 0.3, true, 0);
  const auto grover = make_grover_system(mgr, 3);

  const auto r1 = reachable_space(computer, ghz, 20, nullptr, nullptr, &cache);
  const auto r2 = reachable_space(computer, walk, 32, nullptr, nullptr, &cache);
  const auto i1 = check_invariant(computer, grover, grover.initial, 10, nullptr, nullptr, &cache);
  EXPECT_TRUE(i1.holds);
  EXPECT_EQ(cache.memo_entries(), 3u);
  EXPECT_EQ(computer.stats().cache_misses, 3u);

  const auto r1b = reachable_space(computer, ghz, 20, nullptr, nullptr, &cache);
  const auto r2b = reachable_space(computer, walk, 32, nullptr, nullptr, &cache);
  const auto i1b = check_invariant(computer, grover, grover.initial, 10, nullptr, nullptr, &cache);
  EXPECT_EQ(computer.stats().cache_hits, 3u);
  EXPECT_EQ(r1b.space.dim(), r1.space.dim());
  EXPECT_EQ(r2b.space.dim(), r2.space.dim());
  EXPECT_EQ(i1b.holds, i1.holds);
  EXPECT_EQ(cache.memo_entries(), 3u);
}

}  // namespace
}  // namespace qts
