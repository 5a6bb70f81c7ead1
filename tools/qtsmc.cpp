/// \file qtsmc.cpp
/// qtsmc — a small command-line model checker for quantum circuits built on
/// the library's image computation engines.
///
///   qtsmc image  [options] circuit.qasm     one forward image of |0…0⟩
///   qtsmc reach  [options] circuit.qasm     reachable-subspace fixpoint
///   qtsmc back   [options] circuit.qasm     backward fixpoint from |0…0⟩
///   qtsmc invar  [options] circuit.qasm     check span{|0…0⟩} invariant
///   qtsmc --batch FILE [--cache DIR] [...]  one job per line of FILE
///
/// Options:
///   --engine SPEC                          engine spec: basic | addition:k |
///                                          contraction:k1,k2 | parallel[:t]
///                                          | statevector[:maxq] | sparse[:maxnz]
///                                          (default contraction:4,4; parallel
///                                          shards contraction:4,4's
///                                          Kraus×basis pushes over t worker
///                                          threads, 0 = hardware;
///                                          statevector runs densely, capped at
///                                          maxq qubits, default 14; sparse
///                                          stores only non-zero amplitudes,
///                                          budgeted at maxnz per ket,
///                                          default 65536)
///                                          fallback:specA;specB[;...] runs
///                                          specA and degrades to the next
///                                          spec on resource exhaustion,
///                                          resuming from the last completed
///                                          iteration.  The spec is the
///                                          engine's whole configuration
///   --cross-check SPEC                     rerun the job on a second engine in
///                                          its own manager as a differential
///                                          oracle: per-iteration dims and the
///                                          final subspace must agree, and any
///                                          divergence exits with the internal-
///                                          error code (4)
///   --engines                              list the registered engine methods
///                                          and exit (no circuit file needed)
///   --cache DIR                            content-addressed persistent result
///                                          cache: reach/back/invar verdicts
///                                          and projectors are stored in DIR,
///                                          keyed by a versioned content hash
///                                          of (system, initial subspace,
///                                          property, step cap) — the engine
///                                          spec is deliberately NOT part of
///                                          the key, since engines affect
///                                          speed, never results — and a
///                                          repeated job skips the fixpoint
///                                          entirely.  Corrupt or
///                                          version-mismatched entries fall
///                                          back to a re-run; a read-only DIR
///                                          degrades stores to memory only.
///   --batch FILE                           batch mode: run one job per line
///                                          of FILE (same grammar as the CLI,
///                                          e.g. "reach --steps 8 c.qasm";
///                                          blank lines and #-comments are
///                                          skipped) over one shared manager,
///                                          with an in-memory memo in front of
///                                          the --cache store so duplicate
///                                          jobs inside the batch are free.
///                                          One report line per job; a job
///                                          failure never stops the batch, and
///                                          the process exits with the most
///                                          severe per-job code.  Top-level
///                                          --cache/--timeout/--stats/--verbose
///                                          become per-job defaults.
///   --initial BITSTRING[,BITSTRING...]     initial basis kets (default 0…0)
///   --noise CHANNEL:P:QUBIT                append a noise channel, e.g.
///                                          bitflip:0.1:0 or depol:0.05:2
///   --steps N                              fixpoint iteration cap (default 64)
///   --timeout S                            wall-clock budget in seconds
///   --max-nodes N                          hard live-TDD-node budget: the run
///                                          fails with the resource-exhausted
///                                          exit code (5) — or degrades, under
///                                          a fallback engine — once the
///                                          manager holds N live nodes
///   --inject SPEC                          deterministic fault injection for
///                                          testing recovery paths:
///                                          KIND@iter<K> or KIND@count:<N>
///                                          with KIND one of nodes | alloc |
///                                          qubits | nonzeros | deadline
///                                          (repeatable, comma-separable)
///   --audit                                run the deep structural audit
///                                          (tdd::audit: canonical form,
///                                          unique-table residency, arena
///                                          bookkeeping, op-cache sanity) once
///                                          after the run; corruption exits 4
///                                          with a typed per-failure report
///   --audit-every N                        additionally audit inside the
///                                          fixpoint loop: every N iterations
///                                          and after every GC (0 = off)
///   --stats                                print run statistics (time, peak
///                                          #node, cache hit rates, GC runs,
///                                          frontier iteration totals, engine
///                                          degradations, result-cache traffic,
///                                          storage shape of the shared
///                                          manager)
///   --verbose                              print one line per fixpoint
///                                          iteration: frontier dim, image
///                                          candidates, survivors, shards
///
/// Exit codes:
///   0  success; for `invar`, the invariant HOLDS
///   1  property violated (`invar` found a reachable state outside the
///      invariant subspace)
///   2  CLI or input errors: bad flags, unknown engine, unreadable file,
///      QASM parse failure, malformed --initial/--noise
///   3  wall-clock budget exceeded (--timeout)
///   4  internal error (library bug, or the process ran out of memory)
///   5  resource budget exhausted: a dense/sparse codec cap, the --max-nodes
///      budget, or an exhausted fallback chain (recoverable by raising the
///      budget or extending the chain)
/// In batch mode the process exit code is the MAXIMUM (most severe) per-job
/// code; an unreadable batch file or bad top-level flags exit 2.
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "circuit/noise.hpp"
#include "circuit/qasm.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/strings.hpp"
#include "qts/backward.hpp"
#include "qts/engine.hpp"
#include "qts/fallback_engine.hpp"
#include "qts/reachability.hpp"
#include "qts/result_cache.hpp"
#include "tdd/audit.hpp"

namespace {

using namespace qts;

/// Deliberately wrong engine, registered by qtsmc only: every image is the
/// input ket unchanged (identity dynamics).  Its sole purpose is end-to-end
/// testing of --cross-check failure detection — `--cross-check null` must
/// exit 4 on any circuit whose reachable space grows.
class NullImage final : public ImageComputer {
 public:
  using ImageComputer::ImageComputer;
  [[nodiscard]] std::string name() const override { return "null"; }

 protected:
  /// One empty term: the push of a ket through no operators is the ket.
  Prepared prepare(const circ::Circuit&) override {
    Prepared identity;
    identity.terms.emplace_back();
    return identity;
  }
};

void register_null_engine() {
  register_engine("null", [](tdd::Manager& mgr, const EngineSpec&, ExecutionContext* ctx) {
    return std::make_unique<NullImage>(mgr, ctx);
  });
}

constexpr int kExitSuccess = 0;
constexpr int kExitViolated = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTimeout = 3;
constexpr int kExitInternal = 4;
constexpr int kExitResource = 5;

struct Options {
  std::string command;
  std::string path;
  EngineSpec engine;
  bool cross_check = false;
  EngineSpec oracle;
  std::vector<std::string> initial;
  std::vector<std::string> noise;
  std::size_t steps = 64;
  double timeout_s = 0.0;
  std::size_t max_nodes = 0;
  std::vector<std::string> inject;
  bool audit = false;
  std::size_t audit_every = 0;
  std::string cache_dir;
  bool stats = false;
  bool verbose = false;
};

/// Argument-parsing failure.  Thrown (not exited) so batch mode can fail ONE
/// job with exit code 2 and keep going; the single-run path catches it at
/// top level and prints the usage text as before.
struct UsageError {
  std::string message;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n";
  std::cerr <<
      R"(usage: qtsmc <image|reach|back|invar> [options] circuit.qasm
       qtsmc --batch FILE [--cache DIR] [--timeout S] [--stats] [--verbose]
  --engine SPEC                          basic | addition:k | contraction:k1,k2 |
                                         parallel[:t] (contraction:4,4 on t threads,
                                         0 = hardware) |
                                         statevector[:maxq] (dense, maxq-qubit cap) |
                                         sparse[:maxnz] (amplitude map, maxnz
                                         non-zeros per ket) |
                                         fallback:specA;specB[;...] (degrade to
                                         the next spec on resource exhaustion)
  --cross-check SPEC                     differential oracle engine; divergence
                                         from the primary engine exits 4
                                         (SPEC "null" = deliberately wrong
                                         test engine, guaranteed divergence)
  --engines                              list registered engine methods and exit
  --cache DIR                            persistent result cache: reach/back/
                                         invar results are content-addressed by
                                         (system, initial, property, steps) —
                                         engine spec excluded — and repeated
                                         jobs skip the fixpoint
  --batch FILE                           run one CLI-grammar job per line of
                                         FILE over a shared manager; per-job
                                         report lines; exits with the most
                                         severe per-job code
  --initial BITS[,BITS...]               initial basis kets (default all zeros)
  --noise CHANNEL:P:QUBIT                bitflip|phaseflip|depol|damp channel
  --steps N                              fixpoint iteration cap (default 64)
  --timeout S                            wall-clock budget in seconds
  --max-nodes N                          hard live-TDD-node budget (0 = unlimited)
  --inject SPEC                          deterministic fault injection:
                                         nodes|alloc|qubits|nonzeros|deadline
                                         @iter<K> or @count:<N> (repeatable)
  --audit                                deep structural audit after the run
                                         (corruption exits 4 with a typed report)
  --audit-every N                        audit every N fixpoint iterations and
                                         after every GC (0 = off)
  --stats                                print run statistics
  --verbose                              print per-iteration fixpoint statistics
exit codes: 0 success/holds, 1 property violated, 2 usage or parse error,
            3 timeout, 4 internal error or out of memory,
            5 resource budget exhausted (batch mode: most severe job code)
)";
  std::exit(kExitUsage);
}

/// Strict full-match count parse for CLI flag values.  The previous bare
/// std::stoul silently accepted trailing garbage ("--steps 10x" ran 10
/// steps) and wrapped negatives ("--max-nodes -1" became a huge budget);
/// anything but pure digits is now a usage error (exit 2).
std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  const auto value = parse_uint(text);
  if (!value.has_value()) {
    throw UsageError{flag + " expects a non-negative integer, got '" + text + "'"};
  }
  return *value;
}

/// Strict full-match double parse ("--timeout 5x" is an error, not 5 s).
double parse_number(const std::string& flag, const std::string& text) {
  const auto value = parse_double(text);
  if (!value.has_value()) throw UsageError{flag + " expects a number, got '" + text + "'"};
  return *value;
}

/// Parse one job's arguments (argv[0] is the command: image|reach|back|invar).
/// Throws UsageError on malformed input; EngineSpec::parse and friends may
/// additionally throw InvalidArgument, which callers treat identically.
Options parse_args(const std::vector<std::string>& args) {
  Options opt;
  if (args.size() < 2) throw UsageError{""};
  opt.command = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw UsageError{"missing value for " + a};
      return args[++i];
    };
    if (a == "--engine") {
      opt.engine = EngineSpec::parse(next());
    } else if (a == "--cross-check") {
      opt.cross_check = true;
      opt.oracle = EngineSpec::parse(next());
    } else if (a == "--initial") {
      opt.initial = split(next(), ",");
    } else if (a == "--noise") {
      opt.noise.push_back(next());
    } else if (a == "--steps") {
      opt.steps = static_cast<std::size_t>(parse_count(a, next()));
    } else if (a == "--timeout") {
      opt.timeout_s = parse_number(a, next());
    } else if (a == "--max-nodes") {
      opt.max_nodes = static_cast<std::size_t>(parse_count(a, next()));
    } else if (a == "--inject") {
      opt.inject.push_back(next());
    } else if (a == "--audit") {
      opt.audit = true;
    } else if (a == "--audit-every") {
      opt.audit_every = static_cast<std::size_t>(parse_count(a, next()));
    } else if (a == "--cache") {
      opt.cache_dir = next();
    } else if (a == "--stats") {
      opt.stats = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (!a.empty() && a[0] == '-') {
      throw UsageError{"unknown option " + a};
    } else {
      if (!opt.path.empty()) throw UsageError{"multiple circuit files"};
      opt.path = a;
    }
  }
  if (opt.path.empty()) throw UsageError{"no circuit file given"};
  return opt;
}

std::uint64_t parse_bits(const std::string& bits, std::uint32_t n) {
  require(bits.size() == n, "initial bit string '" + bits + "' must have one bit per qubit");
  std::uint64_t v = 0;
  for (char c : bits) {
    require(c == '0' || c == '1', "initial bit strings are binary");
    v = (v << 1) | static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

circ::Channel parse_channel(const std::string& spec, std::uint32_t& qubit) {
  const auto parts = split(spec, ":");
  require(parts.size() == 3, "noise spec must be CHANNEL:P:QUBIT");
  const auto parsed_p = parse_double(parts[1]);
  require(parsed_p.has_value(), "noise probability must be a number, got '" + parts[1] + "'");
  const double p = *parsed_p;
  const auto parsed_q = parse_uint(parts[2]);
  require(parsed_q.has_value() && *parsed_q <= 0xFFFFFFFFu,
          "noise qubit must be a non-negative integer, got '" + parts[2] + "'");
  qubit = static_cast<std::uint32_t>(*parsed_q);
  if (parts[0] == "bitflip") return circ::bit_flip(p);
  if (parts[0] == "phaseflip") return circ::phase_flip(p);
  if (parts[0] == "depol") return circ::depolarizing(p);
  if (parts[0] == "damp") return circ::amplitude_damping(p);
  throw InvalidArgument("unknown channel '" + parts[0] + "'");
}

/// What one job did: its exit code, a one-line summary for batch report
/// lines, and the job's result-cache traffic for the batch totals.
struct JobOutcome {
  int code = kExitSuccess;
  std::string summary;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_stores = 0;
};

/// Run one parsed job on `mgr`.  `shared_cache` (nullable) is the batch-wide
/// store; a job-level --cache DIR overrides it with a job-local persistent
/// cache.  `quiet` suppresses the narration lines (batch mode) but keeps
/// --stats/--verbose output.  Throws; run_job_caught translates.
JobOutcome run_job(const Options& opt, tdd::Manager& mgr, ResultCache* shared_cache,
                   bool quiet) {
  std::ifstream in(opt.path);
  if (!in) throw InvalidArgument("cannot open " + opt.path);
  std::ostringstream text;
  text << in.rdbuf();
  const circ::Circuit circuit = circ::from_qasm(text.str());
  const std::uint32_t n = circuit.num_qubits();

  // Kraus family: the circuit, then any requested noise channels.
  std::vector<circ::Circuit> kraus{circuit};
  for (const auto& spec : opt.noise) {
    std::uint32_t q = 0;
    const circ::Channel ch = parse_channel(spec, q);
    require(q < n, "noise qubit out of range");
    kraus = circ::apply_channel(kraus, ch, q);
  }

  // One run-control spine per job: the manager, the engine and the fixpoint
  // loop all report through `ctx`.  In batch mode a fresh context per job is
  // what keeps one job's deadline/cancellation/fault plan from leaking into
  // the next.
  ExecutionContext ctx;
  ctx.set_deadline(Deadline::after(opt.timeout_s));
  if (opt.audit_every > 0) ctx.set_audit_every(opt.audit_every);
  if (opt.max_nodes > 0) ctx.set_max_nodes(opt.max_nodes);
  if (!opt.inject.empty()) {
    // Repeated --inject flags fold into one comma-joined plan.
    std::string plan_text;
    for (const auto& spec : opt.inject) {
      if (!plan_text.empty()) plan_text += ",";
      plan_text += spec;
    }
    ctx.set_fault_plan(FaultPlan::parse(plan_text));
  }
  mgr.bind_context(&ctx);

  // The result cache: a job-level --cache DIR wins over the batch-level
  // store; without either, caching is off (cache == nullptr).
  std::unique_ptr<ResultCache> own_cache;
  ResultCache* cache = shared_cache;
  if (!opt.cache_dir.empty()) {
    own_cache = std::make_unique<ResultCache>(opt.cache_dir);
    cache = own_cache.get();
  }

  std::vector<tdd::Edge> kets;
  if (opt.initial.empty()) {
    kets.push_back(ket_basis(mgr, n, 0));
  } else {
    for (const auto& bits : opt.initial) kets.push_back(ket_basis(mgr, n, parse_bits(bits, n)));
  }
  TransitionSystem sys{n, Subspace::from_states(mgr, n, kets),
                       {QuantumOperation{"step", kraus}}};

  const std::unique_ptr<ImageComputer> computer = make_engine(mgr, opt.engine, &ctx);
  // The oracle runs in its own manager and context, under the job's
  // deadline, so --stats reports the primary run alone.
  tdd::Manager oracle_mgr;
  ExecutionContext oracle_ctx;
  oracle_ctx.set_deadline(ctx.deadline());
  oracle_mgr.bind_context(&oracle_ctx);
  std::unique_ptr<ImageComputer> oracle;
  if (opt.cross_check) oracle = make_engine(oracle_mgr, opt.oracle, &oracle_ctx);

  if (!quiet) {
    std::cout << "circuit: " << opt.path << " (" << n << " qubits, " << circuit.size()
              << " gates, " << kraus.size() << " Kraus operator(s))\n"
              << "engine:  " << opt.engine.to_string() << "\n"
              << "initial: dimension " << sys.initial.dim() << "\n";
    if (oracle) std::cout << "oracle:  " << opt.oracle.to_string() << " (cross-check)\n";
    if (cache != nullptr) {
      std::cout << "cache:   " << (cache->directory().empty() ? std::string("(memory)")
                                                              : cache->directory())
                << "\n";
    }
  }

  // Narrate fallback-chain degradations as they happen (--verbose): which
  // backend fell, which took over, and the budget that forced the switch.
  if (opt.verbose) {
    if (auto* fb = dynamic_cast<FallbackImage*>(computer.get())) {
      fb->set_switch_observer([](const DegradationEvent& ev) {
        std::cout << "degrade: " << ev.from << " -> " << ev.to << " at iteration "
                  << ev.iteration << " (" << to_string(ev.cause) << " exhausted)\n";
      });
    }
  }

  // Per-iteration narration of the fixpoint loops (--verbose): one line per
  // frontier iteration, emitted by the FixpointDriver's observer hook.
  IterationObserver observer;
  if (opt.verbose) {
    observer = [](const IterationStats& it) {
      std::cout << "iter " << it.iteration << ": frontier " << it.frontier_dim << " ket(s), "
                << it.shards << " shard(s) -> " << it.candidates << " candidate(s), "
                << it.survivors << " new, reached dimension " << it.acc_dim << ", "
                << it.live_nodes << " live node(s)" << (it.gc ? " [gc]" : "") << "\n";
    };
  }

  JobOutcome out;
  std::ostringstream summary;
  // Roots for the post-run --audit: the subspaces the job still holds live
  // (the reachability checks run against what a subsequent GC would keep).
  std::vector<tdd::Edge> audit_roots;
  const auto keep_for_audit = [&](const Subspace& s) {
    if (!opt.audit) return;
    audit_roots.push_back(s.projector());
    audit_roots.insert(audit_roots.end(), s.basis().begin(), s.basis().end());
  };
  if (opt.command == "image") {
    const Subspace img = computer->image(sys, sys.initial);
    keep_for_audit(img);
    if (!quiet) std::cout << "image:   dimension " << img.dim() << "\n";
    summary << "image dimension " << img.dim();
    if (oracle) {
      // One-shot cross-check: the single forward image, compared in full.
      const Subspace check = oracle->image(sys, sys.initial.copy_to(oracle_mgr));
      if (img.dim() != check.dim() || !check.same_subspace(img.copy_to(oracle_mgr))) {
        throw InternalError("cross-check divergence: image subspaces differ (primary dim " +
                            std::to_string(img.dim()) + ", oracle dim " +
                            std::to_string(check.dim()) + ")");
      }
    }
  } else if (opt.command == "reach") {
    const auto r = reachable_space(*computer, sys, opt.steps, observer, oracle.get(), cache);
    keep_for_audit(r.space);
    if (!quiet) {
      std::cout << "reach:   dimension " << r.space.dim() << " of " << (1ull << std::min(n, 63u))
                << (r.converged ? " (fixpoint)" : " (iteration cap hit)") << " after "
                << r.iterations << " steps\n";
    }
    summary << "reach dimension " << r.space.dim()
            << (r.converged ? " (fixpoint)" : " (iteration cap hit)") << " after "
            << r.iterations << " steps";
  } else if (opt.command == "back") {
    const auto r =
        backward_reachable(*computer, sys, sys.initial, opt.steps, observer, oracle.get(), cache);
    keep_for_audit(r.space);
    if (!quiet) {
      std::cout << "back:    dimension " << r.space.dim()
                << (r.converged ? " (fixpoint)" : " (iteration cap hit)") << " after "
                << r.iterations << " steps\n";
    }
    summary << "back dimension " << r.space.dim()
            << (r.converged ? " (fixpoint)" : " (iteration cap hit)") << " after "
            << r.iterations << " steps";
  } else if (opt.command == "invar") {
    const auto r =
        check_invariant(*computer, sys, sys.initial, opt.steps, observer, oracle.get(), cache);
    // Nothing extra to keep: the invariant subspace IS sys.initial, which
    // the post-run audit roots always include.
    if (!quiet) {
      std::cout << "invar:   " << (r.holds ? "HOLDS" : "VIOLATED") << " after " << r.iterations
                << " steps" << (r.converged ? "" : " (iteration cap hit)") << "\n";
    }
    summary << "invar " << (r.holds ? "HOLDS" : "VIOLATED") << " after " << r.iterations
            << " steps";
    if (!r.holds) out.code = kExitViolated;
  } else {
    throw UsageError{"unknown command " + opt.command};
  }
  if (oracle && !quiet) std::cout << "cross:   " << opt.oracle.to_string() << " agrees\n";

  if (opt.audit) {
    // Post-run structural audit at the job's natural quiescent point: the
    // engines' prepared operators, the initial subspace and the result
    // subspace are exactly what a collection here would keep alive.
    keep_for_audit(sys.initial);
    std::vector<tdd::Edge> roots = computer->prepared_roots();
    roots.insert(roots.end(), audit_roots.begin(), audit_roots.end());
    const tdd::AuditReport report = tdd::audit_or_throw(mgr, roots, &ctx.stats());
    if (!quiet) std::cout << "audit:   " << report.summary() << "\n";
  }

  const RunStats& s = ctx.stats();
  out.cache_hits = s.cache_hits;
  out.cache_misses = s.cache_misses;
  out.cache_stores = s.cache_stores;
  if (cache != nullptr && (s.cache_hits + s.cache_misses) > 0) {
    summary << (s.cache_hits > 0 ? " [cache hit]"
                                 : (s.cache_stores > 0 ? " [cache miss, stored]"
                                                       : " [cache miss]"));
  }
  out.summary = summary.str();

  if (opt.stats) {
    // The canonical spec of what actually ran (not the raw flag text), so
    // logs from differential/cross-check runs are unambiguous.
    std::cout << "ran:     engine " << opt.engine.to_string();
    if (oracle) std::cout << ", cross-checked against " << opt.oracle.to_string();
    std::cout << "\n";
    std::cout << "stats:   " << format_fixed(s.seconds, 3) << " s in image computation, peak "
              << s.peak_nodes << " TDD nodes, " << s.kraus_applications
              << " Kraus applications, " << mgr.live_nodes() << " live nodes, " << s.gc_runs
              << " GC runs\n";
    if (s.fixpoint_iterations > 0) {
      std::cout << "frontier: " << s.fixpoint_iterations << " iteration(s), "
                << s.frontier_kets << " ket(s) imaged in " << s.frontier_shards
                << " shard(s), " << s.frontier_survivors << " survivor(s) of "
                << s.frontier_candidates << " candidate(s), max frontier dim "
                << s.max_frontier_dim << "\n";
    }
    if (s.audits_run > 0) {
      // Merged across parallel workers like the other gauges: audits_run
      // sums on join, audited_nodes max-merges.
      std::cout << "audit:   " << s.audits_run << " audit(s) clean, largest walked "
                << s.audited_nodes << " node(s)\n";
    }
    if (s.plans_computed > 0) {
      std::cout << "planner: " << s.plans_computed << " network(s) planned in "
                << format_fixed(s.plan_seconds * 1e3, 2) << " ms, max order width "
                << s.plan_max_width << "\n";
    }
    if (cache != nullptr && (s.cache_hits + s.cache_misses) > 0) {
      // One line per the caching contract: hit = the fixpoint was skipped,
      // miss = it ran; "stored" = the finished result was persisted/memoised.
      std::cout << "cache:   "
                << (s.cache_hits > 0 ? "hit"
                                     : (s.cache_stores > 0 ? "miss (stored)" : "miss"))
                << "\n";
    }
    if (s.degradations > 0) {
      std::cout << "degrade: " << s.degradations << " engine switch(es):";
      for (std::size_t r = 0; r < s.degradation_causes.size(); ++r) {
        if (s.degradation_causes[r] == 0) continue;
        std::cout << " " << to_string(static_cast<Resource>(r)) << "="
                  << s.degradation_causes[r];
      }
      std::cout << "\n";
    }
    std::cout
              << "caches:  add " << format_fixed(hit_rate_pct(s.add_hits, s.add_misses), 1)
              << "% hit, cont " << format_fixed(hit_rate_pct(s.cont_hits, s.cont_misses), 1)
              << "% hit, unique "
              << format_fixed(hit_rate_pct(s.unique_hits, s.unique_misses), 1) << "% hit\n";
    // Shared-manager storage shape at the end of the run.
    const tdd::Manager::StorageStats st = mgr.storage_stats();
    const auto entries = [](std::size_t k) {
      return std::to_string(k) + (k == 1 ? " entry" : " entries");
    };
    std::cout << "storage: unique table " << st.table_nodes << " node(s) in "
              << st.table_slots << " slot(s) over " << st.table_shards << " shard(s), load "
              << format_fixed(st.table_load_factor, 3) << "; arena " << st.arena_blocks
              << " block(s), capacity " << st.arena_capacity << " node(s), "
              << st.allocated_nodes << " ever constructed"
              << "; op caches " << st.op_slots << " slot(s), add "
              << entries(st.add_cache_entries) << " (" << st.add_cache_bytes << " B), cont "
              << entries(st.cont_cache_entries) << " (" << st.cont_cache_bytes << " B)\n";
  }
  return out;
}

/// run_job with the per-job exception ladder folded into an exit code, so a
/// batch can survive any single job's failure.  Error text goes to stderr
/// exactly as the single-run mode printed it.
JobOutcome run_job_caught(const Options& opt, tdd::Manager& mgr, ResultCache* shared_cache,
                          bool quiet) {
  try {
    return run_job(opt, mgr, shared_cache, quiet);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.message << "\n";
    return {kExitUsage, e.message, 0, 0, 0};
  } catch (const qts::DeadlineExceeded&) {
    std::cerr << "error: timeout exceeded\n";
    return {kExitTimeout, "timeout exceeded", 0, 0, 0};
  } catch (const qts::ResourceExhausted& e) {
    std::cerr << "resource exhausted: " << e.what() << "\n";
    return {kExitResource, e.what(), 0, 0, 0};
  } catch (const tdd::AuditError& e) {
    // Typed corruption report: one line per violated invariant, then the
    // internal-error exit code (corruption is a library bug by definition).
    std::cerr << "audit failed: " << e.what() << "\n";
    for (const auto& f : e.report().failures) {
      std::cerr << "audit:   [" << tdd::to_string(f.check) << "] " << f.detail << "\n";
    }
    return {kExitInternal, e.what(), 0, 0, 0};
  } catch (const qts::InternalError& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return {kExitInternal, e.what(), 0, 0, 0};
  } catch (const qts::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return {kExitUsage, e.what(), 0, 0, 0};
  } catch (const std::invalid_argument&) {  // residual std::stod (QASM literals)
    std::cerr << "error: option expects a numeric value\n";
    return {kExitUsage, "option expects a numeric value", 0, 0, 0};
  } catch (const std::out_of_range&) {
    std::cerr << "error: numeric option value out of range\n";
    return {kExitUsage, "numeric option value out of range", 0, 0, 0};
  } catch (const std::bad_alloc&) {
    // Allocation failures that escaped the arena's ResourceExhausted
    // translation (e.g. inside std:: containers): fail crisply instead of
    // an unhandled-exception abort.
    std::cerr << "error: out of memory\n";
    return {kExitInternal, "out of memory", 0, 0, 0};
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return {kExitInternal, e.what(), 0, 0, 0};
  }
}

/// Top-level flags of `qtsmc --batch FILE`: per-job defaults plus the
/// batch-wide cache directory.
struct BatchOptions {
  std::string file;
  std::string cache_dir;
  double timeout_s = 0.0;
  bool stats = false;
  bool verbose = false;
};

int run_batch(const BatchOptions& bopt) {
  std::ifstream in(bopt.file);
  if (!in) {
    std::cerr << "error: cannot open batch file " << bopt.file << "\n";
    return kExitUsage;
  }

  // One shared manager for the whole batch (jobs share canonical node
  // structure) and one shared two-level result store: the in-memory memo
  // makes duplicate jobs inside the batch free even without --cache.
  tdd::Manager mgr;
  ResultCache cache(bopt.cache_dir);

  std::size_t total = 0;
  std::size_t failed = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_stores = 0;
  int worst = kExitSuccess;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    ++total;

    JobOutcome out;
    try {
      Options opt = parse_args(split(stripped, " \t"));
      // Top-level flags are per-job DEFAULTS: a job line's own flags win.
      if (opt.timeout_s <= 0 && bopt.timeout_s > 0) opt.timeout_s = bopt.timeout_s;
      opt.stats = opt.stats || bopt.stats;
      opt.verbose = opt.verbose || bopt.verbose;
      out = run_job_caught(opt, mgr, &cache, /*quiet=*/true);
    } catch (const UsageError& e) {
      std::cerr << "error: " << e.message << "\n";
      out = {kExitUsage, e.message.empty() ? "malformed job line" : e.message, 0, 0, 0};
    } catch (const qts::Error& e) {  // EngineSpec::parse and friends
      std::cerr << "error: " << e.what() << "\n";
      out = {kExitUsage, e.what(), 0, 0, 0};
    }

    if (out.code != kExitSuccess && out.code != kExitViolated) ++failed;
    if (out.code > worst) worst = out.code;
    cache_hits += out.cache_hits;
    cache_stores += out.cache_stores;
    std::cout << "job " << line_no << ": " << stripped << " -> exit " << out.code << " ("
              << out.summary << ")\n";
  }

  std::cout << "batch:   " << total << " job(s), " << (total - failed) << " completed, "
            << failed << " failed, " << cache_hits << " cache hit(s), " << cache_stores
            << " store(s)\n";
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    register_null_engine();

    // `qtsmc --engines` works stand-alone, without a command or circuit.
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--engines") == 0) {
        for (const auto& name : registered_engines()) {
          std::cout << name;
          if (name == "null") {
            std::cout << "   (test-only: identity dynamics, never use for real verification"
                         " — exists to exercise --cross-check divergence detection)";
          }
          std::cout << "\n";
        }
        return kExitSuccess;
      }
    }

    // `qtsmc --batch FILE` is its own mode with a small top-level grammar.
    if (argc >= 2 && std::strcmp(argv[1], "--batch") == 0) {
      BatchOptions bopt;
      if (argc < 3) usage("missing value for --batch");
      bopt.file = argv[2];
      for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
          if (i + 1 >= argc) usage("missing value for " + a);
          return argv[++i];
        };
        try {
          if (a == "--cache") {
            bopt.cache_dir = next();
          } else if (a == "--timeout") {
            bopt.timeout_s = parse_number(a, next());
          } else if (a == "--stats") {
            bopt.stats = true;
          } else if (a == "--verbose") {
            bopt.verbose = true;
          } else {
            usage("unknown batch option " + a + " (per-job flags go on the job lines)");
          }
        } catch (const UsageError& e) {
          usage(e.message);
        }
      }
      return run_batch(bopt);
    }

    if (argc < 3) usage();
    Options opt;
    try {
      opt = parse_args(std::vector<std::string>(argv + 1, argv + argc));
    } catch (const UsageError& e) {
      usage(e.message);
    }

    tdd::Manager mgr;
    return run_job_caught(opt, mgr, nullptr, /*quiet=*/false).code;
  } catch (const qts::Error& e) {
    // Pre-job failures (e.g. a --cache directory that cannot be created).
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}
