/// \file result_cache.hpp
/// Content-addressed persistent result cache for model-checking jobs.
///
/// The determinism contract (every registered engine produces bit-identical
/// projectors — enforced end to end by `--cross-check`) makes a model-checking
/// verdict a pure function of the JOB, not of the engine that ran it:
///
///   job = (transition system, initial subspace, property, iteration cap)
///
/// so a result computed once can be served forever after.  This header
/// provides the two halves of that service:
///
///   * job_key() — a versioned 128-bit FNV-1a content hash over a canonical
///     serialisation of the job (canonical_job_text()).  The engine spec is
///     deliberately EXCLUDED: engines only affect speed, never results.
///     Anything that can change the verdict — Kraus circuits gate by gate
///     with full matrices, noise factors, the initial-subspace projector, the
///     property projector, the step cap — is included.  TDD canonicity makes
///     the projector serialisations (tdd::io) canonical too, so equal
///     subspaces hash equally no matter how they were built.
///
///   * ResultCache — a two-level store: an in-memory memo (always on; makes
///     duplicate jobs inside one `qtsmc --batch` run free) in front of an
///     optional on-disk directory of one file per key.  Records ("qtsres
///     v2") hold the verdict, run metadata, the final projector TDD and then
///     the cold run's orthonormal basis, both serialised with tdd::io.  A
///     disk hit rebuilds both through make_node and serves that basis as is
///     — no re-derivation from the projector — so a cached subspace shares
///     structure with the live manager and is bit-identical to what the cold
///     run produced.  The memo keeps each record's text and its decoded
///     subspace, stamped with the tdd::Manager::generation() it lives in: a
///     hit in that same manager, with no gc() since, is served from the
///     decoded subspace without touching the text; any other manager or
///     generation parses the text, as a disk hit does.  Writes are atomic
///     (tmp file + rename); corrupt, truncated or version-mismatched
///     entries — and any I/O failure — degrade to a cache miss, never an
///     error.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "qts/subspace.hpp"
#include "qts/system.hpp"

namespace qts {

/// 128-bit content hash identifying a job.  Stable across processes and
/// platforms (the canonical text is pure ASCII and the fold is byte-wise).
struct JobKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// 32 lower-case hex characters; the on-disk file stem.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const JobKey&, const JobKey&) = default;
};

/// The canonical serialisation job_key() hashes: a versioned ASCII text
/// covering the property kind, the register width, the iteration cap, the
/// initial-subspace projector, every operation's Kraus circuits (global
/// factor, then each gate with name, targets, controls and the full base
/// matrix at 17 significant digits) and the property projector (the zero
/// edge when the property needs none, e.g. plain reachability).  Exposed
/// for tests and for debugging key mismatches.
std::string canonical_job_text(const TransitionSystem& sys, std::string_view property,
                               const tdd::Edge& property_projector, std::size_t max_iterations);

/// FNV-1a/128 over canonical_job_text().
JobKey job_key(const TransitionSystem& sys, std::string_view property,
               const tdd::Edge& property_projector, std::size_t max_iterations);

/// Two-level (memory, disk) content-addressed store of finished jobs.
class ResultCache {
 public:
  /// Memory-only cache when `dir` is empty; otherwise entries persist as
  /// `dir/<key>.qtsres` (the directory is created if missing — failure to
  /// create it throws InvalidArgument, since the caller asked for
  /// persistence at that path; a directory that exists but is read-only
  /// degrades every store to memo-only instead).
  explicit ResultCache(std::string dir = "");

  /// A cached verdict, rehydrated into the caller's manager.
  struct Entry {
    Subspace space;              ///< the cold run's basis and projector
    std::size_t iterations = 0;  ///< fixpoint iterations of the original run
    bool converged = false;      ///< original run reached a fixpoint
    bool holds = true;           ///< invariant verdict (true for reach/back)
  };

  /// Look `key` up (memo first, then disk).  Returns nullopt on a miss —
  /// including corrupt/truncated/version-mismatched files, a record whose
  /// property kind or register width disagrees with the request, one whose
  /// basis count, dim line and projector trace disagree, and any read
  /// error.  A memo entry decoded in `mgr` at its current generation() is
  /// served without parsing; otherwise the record text is parsed into
  /// `mgr` and that decoding is memoised (a disk hit is promoted into the
  /// memo this way).  Thread-safe.
  std::optional<Entry> lookup(const JobKey& key, tdd::Manager& mgr, std::uint32_t num_qubits,
                              std::string_view property);

  /// Record a finished job.  Always memoised, `space` as given (so a lookup
  /// in its manager before the next gc() needs no parse); persisted too
  /// when a directory was given.  Returns true iff the entry reached disk
  /// (memory-only caches and write failures — e.g. a read-only directory —
  /// return false, and the run carries on: the cache degrades, it never
  /// fails a job).
  /// Thread-safe, also for concurrent stores of one key.
  bool store(const JobKey& key, std::string_view property, const Subspace& space,
             std::size_t iterations, bool converged, bool holds);

  [[nodiscard]] const std::string& directory() const { return dir_; }
  [[nodiscard]] std::size_t memo_entries() const {
    const MutexLock lock(memo_mutex_);
    return memo_.size();
  }

  /// On-disk record path for `key` ("" for memory-only caches).
  [[nodiscard]] std::string path_for(const JobKey& key) const;

 private:
  /// Rebuild an Entry from a record's text; nullopt when the record does
  /// not belong to the request or fails its consistency check.  Throws
  /// qts::Error on a malformed blob.
  static std::optional<Entry> parse_record(std::string_view text, tdd::Manager& mgr,
                                           std::uint32_t num_qubits, std::string_view property);

  /// A record decoded in the manager whose generation() was `generation`.
  struct Decoded {
    std::uint64_t generation = 0;
    std::string property;
    Entry entry;
  };
  struct Memo {
    std::shared_ptr<const std::string> text;
    std::shared_ptr<const Decoded> decoded;
  };

  std::string dir_;  // empty = memory-only
  // Each memo entry keeps the serialised record TEXT and the last decoding
  // of it.  The decoded edges are not GC roots: a batch job's collection
  // may sweep them, but it also moves its manager to a new generation(), so
  // a stale decoding is never served — the hit falls back to parsing the
  // text into the caller's manager, and memoises that.  Records and
  // decodings are shared immutable objects, so a hit takes references under
  // the lock and copies or parses outside it.  Guarded so a future
  // `--serve` front end can share one cache across request threads.
  mutable Mutex memo_mutex_;
  std::unordered_map<std::string, Memo> memo_ GUARDED_BY(memo_mutex_);
};

}  // namespace qts
