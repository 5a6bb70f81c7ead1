#include "tdd/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>

#include "common/error.hpp"
#include "tdd/flat_table.hpp"

namespace qts::tdd {

namespace {

using NodeIds = FlatCache<const Node*, long>;

/// Number every node reachable from `root` that `ids` does not hold yet, in
/// post-order, low child before high: the file is bottom-up so load() can
/// rebuild in order.  The walk keeps an explicit stack, so a diagram's depth
/// is not bounded by the call stack; a node stays on the stack until both
/// children are numbered, and the low child is pushed last so its subtree is
/// numbered first.  The numbering fixes the file's bytes, which result-cache
/// records and the golden text test pin.
void collect(const Node* root, NodeIds& ids, std::vector<const Node*>& order) {
  std::vector<const Node*> stack;
  if (root != nullptr) stack.push_back(root);
  while (!stack.empty()) {
    const Node* n = stack.back();
    if (ids.contains(n)) {  // reached again through a second parent
      stack.pop_back();
      continue;
    }
    const Node* low = n->low().node;
    const Node* high = n->high().node;
    const bool low_done = low == nullptr || ids.contains(low);
    const bool high_done = high == nullptr || ids.contains(high);
    if (low_done && high_done) {
      stack.pop_back();
      ids.insert(n, static_cast<long>(order.size()));
      order.push_back(n);
      continue;
    }
    if (!high_done) stack.push_back(high);
    if (!low_done) stack.push_back(low);
  }
}

long id_of(const Node* n, const NodeIds& ids) {
  return n == nullptr ? -1 : *ids.find(n);
}

/// A zero component is written as 0, never -0.  The sign of a zero depends
/// on whether a sub-result was served by the lossy op caches or recomputed,
/// and bucketed() reads both as one value, so engines that reach the same
/// diagram write the same bytes.
void put_weight(std::string& out, double v) { put(out, v == 0.0 ? 0.0 : v); }

void put_edge(std::string& out, const Edge& e, const NodeIds& ids) {
  put(out, id_of(e.node, ids));
  out += ' ';
  put_weight(out, e.weight.real());
  out += ' ';
  put_weight(out, e.weight.imag());
}

[[noreturn]] void fail(const std::string& what) { throw ParseError("qtdd: " + what); }

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Whitespace-separated tokens taken off the front of a buffer; an empty
/// token means the input ended.
class BufferTokens {
 public:
  explicit BufferTokens(std::string_view& text) : text_(text) {}
  std::string_view next() {
    std::size_t i = 0;
    while (i < text_.size() && is_space(text_[i])) ++i;
    std::size_t j = i;
    while (j < text_.size() && !is_space(text_[j])) ++j;
    const std::string_view token = text_.substr(i, j - i);
    text_.remove_prefix(j);
    return token;
  }

 private:
  std::string_view& text_;
};

/// The same tokens read from a stream, one extraction each, so the stream
/// is left just past the last token parsed.
class StreamTokens {
 public:
  explicit StreamTokens(std::istream& is) : is_(is) {}
  std::string_view next() {
    if (!(is_ >> token_)) token_.clear();
    return token_;
  }

 private:
  std::istream& is_;
  std::string token_;
};

/// The whole token as a number of type T; anything else (empty, a sign on
/// an unsigned field, trailing bytes, out of range) is a ParseError.
template <class T>
T number(std::string_view token, const char* what) {
  if (token.empty()) fail(std::string("truncated input (expected ") + what + ")");
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    fail(std::string("bad ") + what + " '" + std::string(token) + "'");
  }
  return v;
}

// Reservation cap for counts read from the input: a corrupt count must fail
// on the missing lines, not allocate for them up front.
constexpr std::size_t kReserveCap = std::size_t{1} << 16;

template <class Tokens>
std::vector<Edge> parse(Manager& mgr, Tokens& in, std::size_t roots) {
  if (in.next() != "qtdd" || in.next() != "v1") fail("bad header (expected 'qtdd v1')");
  if (in.next() != "nodes") fail("bad node-count line");
  const auto count = number<std::size_t>(in.next(), "node count");

  std::vector<Edge> built;  // weight-1 edges to rebuilt nodes
  built.reserve(std::min(count, kReserveCap));
  const auto id = [&](std::string_view token, std::size_t limit) -> std::int64_t {
    const auto v = number<std::int64_t>(token, "node id");
    if (v < -1 || v >= static_cast<std::int64_t>(limit)) fail("node id out of range");
    return v;
  };
  const auto edge_to = [&](std::int64_t target, double re, double im) -> Edge {
    const cplx w{re, im};
    if (target < 0) return mgr.terminal(w);
    const Edge& node = built[static_cast<std::size_t>(target)];
    // A weight-1 node takes the weight as written: a complex product with 1
    // can flip the sign of a zero component.
    if (node.weight != cplx{1.0, 0.0} || w == cplx{0.0, 0.0}) return mgr.scale(node, w);
    return Edge{node.node, w};
  };
  const auto weighted_edge = [&](std::size_t limit) -> Edge {
    const std::int64_t target = id(in.next(), limit);
    const auto re = number<double>(in.next(), "weight");
    const auto im = number<double>(in.next(), "weight");
    return edge_to(target, re, im);
  };

  for (std::size_t i = 0; i < count; ++i) {
    if (number<std::size_t>(in.next(), "node id") != i) {
      fail("node ids must be dense and in order");
    }
    const auto level = number<Level>(in.next(), "level");
    // Children must precede their parent in the file...
    const Edge low = weighted_edge(i);
    const Edge high = weighted_edge(i);
    // ...and sit below it in the variable order.
    if (low.top_level() <= level || high.top_level() <= level) {
      fail("children must sit below their parent");
    }
    built.push_back(mgr.make_stored_node(level, low, high));
  }

  std::vector<Edge> out;
  out.reserve(std::min(roots, kReserveCap));
  for (std::size_t r = 0; r < roots; ++r) {
    if (in.next() != "root") fail("bad root line");
    out.push_back(weighted_edge(count));
  }
  return out;
}

}  // namespace

void save_roots(std::span<const Edge> roots, std::string& out) {
  NodeIds ids;
  std::vector<const Node*> order;
  for (const Edge& root : roots) collect(root.node, ids, order);

  out.reserve(out.size() + 64 * (order.size() + roots.size()) + 32);
  out += "qtdd v1\nnodes ";
  put(out, order.size());
  out += '\n';
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node* n = order[i];
    put(out, i);
    out += ' ';
    put(out, n->level());
    out += ' ';
    put_edge(out, n->low(), ids);
    out += ' ';
    put_edge(out, n->high(), ids);
    out += '\n';
  }
  for (const Edge& root : roots) {
    out += "root ";
    put_edge(out, root, ids);
    out += '\n';
  }
}

std::vector<Edge> load_roots(Manager& mgr, std::string_view& text, std::size_t count) {
  BufferTokens in(text);
  return parse(mgr, in, count);
}

void save(const Edge& root, std::ostream& os) {
  const std::string text = save_string(root);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

Edge load(Manager& mgr, std::istream& is) {
  StreamTokens in(is);
  return parse(mgr, in, 1).front();
}

std::string save_string(const Edge& root) {
  std::string out;
  save_roots(std::span<const Edge>(&root, 1), out);
  return out;
}

Edge load_string(Manager& mgr, std::string_view text) {
  return load_roots(mgr, text, 1).front();
}

}  // namespace qts::tdd
