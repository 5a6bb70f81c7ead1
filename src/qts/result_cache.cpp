#include "qts/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "qts/states.hpp"
#include "tdd/io.hpp"

namespace qts {

namespace {

using tdd::put;

void put_cplx(std::string& out, const cplx& w) {
  put(out, w.real());
  out += ' ';
  put(out, w.imag());
}

void put_circuit(std::string& out, const circ::Circuit& c) {
  out += "circuit ";
  put(out, c.num_qubits());
  out += " factor ";
  put_cplx(out, c.global_factor());
  out += " gates ";
  put(out, c.size());
  out += '\n';
  for (const circ::Gate& g : c.gates()) {
    out += "gate ";
    out += g.name();
    out += " targets ";
    put(out, g.targets().size());
    for (const std::uint32_t q : g.targets()) {
      out += ' ';
      put(out, q);
    }
    out += " controls ";
    put(out, g.controls().size());
    for (const circ::Control& ctl : g.controls()) {
      out += ' ';
      put(out, ctl.qubit);
      out += ctl.positive ? '+' : '-';
    }
    const la::Matrix& m = g.base();
    out += " matrix ";
    put(out, m.rows());
    out += ' ';
    put(out, m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t col = 0; col < m.cols(); ++col) {
        out += ' ';
        put_cplx(out, m(r, col));
      }
    }
    out += '\n';
  }
}

// FNV-1a 128-bit: offset basis and prime from the FNV reference parameters.
using u128 = unsigned __int128;
constexpr u128 kFnvOffset =
    (u128{0x6c62272e07bb0142ULL} << 64) | u128{0x62b821756295c58dULL};
constexpr u128 kFnvPrime = (u128{0x0000000001000000ULL} << 64) | u128{0x000000000000013bULL};

JobKey fnv1a_128(std::string_view text) {
  u128 h = kFnvOffset;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return JobKey{static_cast<std::uint64_t>(h >> 64), static_cast<std::uint64_t>(h)};
}

constexpr std::string_view kRecordHeader = "qtsres v2";
constexpr std::string_view kRecordSuffix = ".qtsres";

/// Distinguishes the tmp files of concurrent stores within one process.
std::atomic<std::uint64_t> g_tmp_sequence{0};

/// The value of the "<word> <value>" line at the front of `text` (leading
/// whitespace skipped; "" for a bare "<word>" line), advancing `text` past
/// the line.  nullopt when the line carries another word.
std::optional<std::string_view> field(std::string_view& text, std::string_view word) {
  const std::size_t start = std::min(text.find_first_not_of(" \t\r\n"), text.size());
  text.remove_prefix(start);
  const std::size_t eol = std::min(text.find('\n'), text.size());
  std::string_view line = text.substr(0, eol);
  text.remove_prefix(eol);
  if (!line.starts_with(word)) return std::nullopt;
  line.remove_prefix(word.size());
  if (line.empty()) return line;
  if (line.front() != ' ') return std::nullopt;
  return line.substr(1);
}

/// A whole decimal count, or nullopt.
std::optional<std::size_t> count_of(std::optional<std::string_view> value) {
  if (!value || value->empty()) return std::nullopt;
  std::size_t out = 0;
  const char* end = value->data() + value->size();
  const auto [ptr, ec] = std::from_chars(value->data(), end, out);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return out;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size)) return std::nullopt;
  return text;
}

}  // namespace

std::string JobKey::hex() const {
  std::ostringstream os;
  os << std::hex << std::setfill('0') << std::setw(16) << hi << std::setw(16) << lo;
  return os.str();
}

std::string canonical_job_text(const TransitionSystem& sys, std::string_view property,
                               const tdd::Edge& property_projector,
                               std::size_t max_iterations) {
  std::string out = "qtsjob v1\nproperty ";
  out += property;
  out += "\nqubits ";
  put(out, sys.num_qubits);
  out += "\nsteps ";
  put(out, max_iterations);
  // The projector TDD is the canonical representation of a subspace (P is
  // unique as an operator and the TDD of P is canonical), so equal initial
  // subspaces serialise identically however their bases were chosen.
  out += "\ninitial\n";
  tdd::save_roots(std::span<const tdd::Edge>(&sys.initial.projector(), 1), out);
  out += "operations ";
  put(out, sys.operations.size());
  out += '\n';
  for (const QuantumOperation& op : sys.operations) {
    out += "operation ";
    out += op.symbol;
    out += " kraus ";
    put(out, op.kraus.size());
    out += '\n';
    for (const circ::Circuit& k : op.kraus) put_circuit(out, k);
  }
  out += "propertyprojector\n";
  tdd::save_roots(std::span<const tdd::Edge>(&property_projector, 1), out);
  return out;
}

JobKey job_key(const TransitionSystem& sys, std::string_view property,
               const tdd::Edge& property_projector, std::size_t max_iterations) {
  return fnv1a_128(canonical_job_text(sys, property, property_projector, max_iterations));
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw InvalidArgument("result cache: cannot create directory '" + dir_ + "'");
  }
}

std::string ResultCache::path_for(const JobKey& key) const {
  if (dir_.empty()) return "";
  return dir_ + "/" + key.hex() + std::string(kRecordSuffix);
}

std::optional<ResultCache::Entry> ResultCache::parse_record(std::string_view text,
                                                            tdd::Manager& mgr,
                                                            std::uint32_t num_qubits,
                                                            std::string_view property) {
  if (field(text, "qtsres") != "v2") return std::nullopt;
  if (field(text, "property") != property) return std::nullopt;
  if (count_of(field(text, "qubits")) != num_qubits) return std::nullopt;
  const auto iterations = count_of(field(text, "iterations"));
  const auto converged = count_of(field(text, "converged"));
  const auto holds = count_of(field(text, "holds"));
  const auto dim = count_of(field(text, "dim"));
  if (!iterations || !converged || !holds || !dim) return std::nullopt;
  if (field(text, "projector") != "") return std::nullopt;
  const tdd::Edge projector = tdd::load_roots(mgr, text, 1).front();
  if (count_of(field(text, "basis")) != dim) return std::nullopt;
  std::vector<tdd::Edge> basis = tdd::load_roots(mgr, text, *dim);
  if (field(text, "end") != "") return std::nullopt;
  // The basis count, the dim line and round(tr P) must agree; a record
  // failing that is not the cold run's result.
  const double trace = operator_trace(mgr, projector, num_qubits).real();
  if (std::llround(trace) != static_cast<long long>(*dim)) return std::nullopt;
  return Entry{Subspace::from_stored(mgr, num_qubits, std::move(basis), projector), *iterations,
               *converged != 0, *holds != 0};
}

std::optional<ResultCache::Entry> ResultCache::lookup(const JobKey& key, tdd::Manager& mgr,
                                                      std::uint32_t num_qubits,
                                                      std::string_view property) {
  const std::string hex = key.hex();
  Memo memo;
  {
    const MutexLock lock(memo_mutex_);
    if (const auto it = memo_.find(hex); it != memo_.end()) memo = it->second;
  }
  // Decoded in this manager and generation: its edges are still live.  The
  // checks are parse_record's, so a mismatch misses here as it would there.
  if (const Decoded* d = memo.decoded.get();
      d != nullptr && d->generation == mgr.generation()) {
    if (d->property != property || d->entry.space.num_qubits() != num_qubits) {
      return std::nullopt;
    }
    return d->entry;
  }
  if (memo.text == nullptr) {
    if (dir_.empty()) return std::nullopt;
    std::optional<std::string> bytes = read_file(path_for(key));
    if (!bytes) return std::nullopt;
    memo.text = std::make_shared<const std::string>(std::move(*bytes));
  }

  // Anything wrong with the record — wrong header, wrong property or width,
  // truncation, a malformed blob, counts that disagree — is a MISS, never
  // an error: the caller recomputes and overwrites.
  try {
    std::optional<Entry> e = parse_record(*memo.text, mgr, num_qubits, property);
    if (e) {
      auto decoded = std::make_shared<const Decoded>(
          Decoded{mgr.generation(), std::string(property), *e});
      const MutexLock lock(memo_mutex_);
      Memo& slot = memo_[hex];
      // A store since our read replaced the text: keep its entry.
      if (slot.text == nullptr || slot.text == memo.text) {
        slot = Memo{std::move(memo.text), std::move(decoded)};
      }
    }
    return e;
  } catch (const Error&) {
    return std::nullopt;
  }
}

bool ResultCache::store(const JobKey& key, std::string_view property, const Subspace& space,
                        std::size_t iterations, bool converged, bool holds) {
  std::string record;
  record += kRecordHeader;
  record += "\nproperty ";
  record += property;
  record += "\nqubits " + std::to_string(space.num_qubits());
  record += "\niterations " + std::to_string(iterations);
  record += "\nconverged " + std::string(converged ? "1" : "0");
  record += "\nholds " + std::string(holds ? "1" : "0");
  record += "\ndim " + std::to_string(space.dim());
  record += "\nprojector\n";
  tdd::save_roots(std::span<const tdd::Edge>(&space.projector(), 1), record);
  record += "basis " + std::to_string(space.dim()) + "\n";
  tdd::save_roots(space.basis(), record);
  record += "end\n";
  auto text = std::make_shared<const std::string>(std::move(record));
  auto decoded = std::make_shared<const Decoded>(Decoded{
      space.manager().generation(), std::string(property),
      Entry{space, iterations, converged, holds}});

  const std::string hex = key.hex();
  bool persisted = false;
  if (!dir_.empty()) {
    // Atomic publish: write the whole record to a private tmp file, then
    // rename onto the final name.  Readers either see the old bytes or the
    // complete new record, never a torn write; any failure along the way
    // degrades to memo-only.  The pid and a process-wide sequence number
    // keep concurrent stores of one key, from any thread or process, out
    // of each other's tmp files.
    const std::string final_path = path_for(key);
    const std::string tmp_path = final_path + ".tmp." + std::to_string(::getpid()) + "." +
                                 std::to_string(g_tmp_sequence.fetch_add(1));
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (out) {
        out.write(text->data(), static_cast<std::streamsize>(text->size()));
        out.flush();
        persisted = out.good();
      }
    }
    if (persisted) {
      std::error_code ec;
      std::filesystem::rename(tmp_path, final_path, ec);
      persisted = !ec;
    }
    if (!persisted) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
    }
  }
  {
    const MutexLock lock(memo_mutex_);
    memo_[hex] = Memo{std::move(text), std::move(decoded)};
  }
  return persisted;
}

}  // namespace qts
