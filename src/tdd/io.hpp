/// \file io.hpp
/// Text serialisation of TDDs ("qtdd v1").  The format is a topologically
/// sorted node list followed by one root line per serialised root; loading
/// rebuilds through make_node, so a loaded diagram is canonical in the
/// target manager and shares structure with whatever already lives there.
///
///   qtdd v1
///   nodes <count>
///   <id> <level> <low_id> <low_re> <low_im> <high_id> <high_re> <high_im>
///   ...
///   root <id> <re> <im>
///
/// Node ids are dense indices into the file (0-based); id -1 is the
/// terminal.  Weights are printed with 17 significant digits
/// (std::to_chars, `%.17g`) so a round-trip is exact at double precision,
/// except that a zero component is always written as `0`: the sign of a zero
/// is not part of a saved diagram (loading still reads `-0` as -0.0).
/// A blob of several roots shares one node table and carries one root line
/// per root, in order; the single-root blob is its one-root case.
///
/// Loading is strict: every token must be a whole number of the expected
/// kind (no trailing bytes, no sign on a level, no id outside -1 or the
/// already-built prefix), children must sit below their parent, and any
/// violation is a qts::ParseError.  Bytes after the last root line are not
/// read, so blobs can be embedded mid-document (the result cache's records
/// and the canonical job text do).
#pragma once

#include <charconv>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "tdd/manager.hpp"

namespace qts::tdd {

/// Append `v` to `out`: integers in decimal, doubles as `%.17g` — the exact
/// text a std::ostream at precision 17 prints — so every weight this format
/// (and the result cache's texts built with it) writes round-trips.
template <class T>
void put(std::string& out, T v) {
  char buf[32];
  std::to_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  } else {
    r = std::to_chars(buf, buf + sizeof buf, v);
  }
  out.append(buf, r.ptr);
}

/// Append one blob holding every root in `roots` (shared node table, one
/// root line per root, in order) to `out`.
void save_roots(std::span<const Edge> roots, std::string& out);

/// Parse a blob with exactly `count` root lines from the front of `text`
/// into `mgr`; on return `text` holds the bytes after the last root line.
/// Throws qts::ParseError on malformed input.
std::vector<Edge> load_roots(Manager& mgr, std::string_view& text, std::size_t count);

/// Write the TDD rooted at `root`.
void save(const Edge& root, std::ostream& os);

/// Read one single-root TDD into `mgr`, consuming exactly its tokens from
/// the stream.  Throws qts::ParseError on malformed input.
Edge load(Manager& mgr, std::istream& is);

/// Convenience string round-trip helpers.
std::string save_string(const Edge& root);
Edge load_string(Manager& mgr, std::string_view text);

}  // namespace qts::tdd
