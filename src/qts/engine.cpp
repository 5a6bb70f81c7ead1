#include "qts/engine.hpp"

#include <cstdint>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qts/fallback_engine.hpp"
#include "qts/parallel.hpp"
#include "qts/sparse_engine.hpp"
#include "qts/statevector_engine.hpp"
#include "tn/partition.hpp"

namespace qts {

namespace {

/// Strict full-match unsigned parse (common/strings.hpp parse_uint): the
/// whole piece must be digits — "2x" and "-1" are rejected, not truncated
/// or wrapped.
std::size_t parse_count(std::string_view piece, const std::string& spec) {
  const auto value = parse_uint(piece);
  if (!value.has_value()) {
    throw InvalidArgument("engine spec '" + spec + "': expected a number, got '" +
                          std::string(piece) + "'");
  }
  return static_cast<std::size_t>(*value);
}

/// What a registry row makes of one argument text: its canonical form and
/// the constructor call bound to the parsed parameters.
struct Parsed {
  std::string args;  ///< canonical argument text ("" = no parameters)
  std::function<std::unique_ptr<ImageComputer>(tdd::Manager&, ExecutionContext*)> build;
};

/// One registry row: a method's parameter grammar, defaults (for empty
/// `args`), bounds, canonical form and constructor call.  `spec` is the
/// whole spec text, for error messages.  Throws InvalidArgument on
/// malformed or out-of-range parameters.
using Row = std::function<Parsed(const std::string& args, const std::string& spec)>;

std::map<std::string, Row>& registry() {
  static std::map<std::string, Row> rows = [] {
    std::map<std::string, Row> m;
    m["basic"] = [](const std::string& args, const std::string& spec) -> Parsed {
      require(args.empty(), "engine spec '" + spec + "': basic takes no parameters");
      return {"", [](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<BasicImage>(mgr, ctx);
              }};
    };
    m["addition"] = [](const std::string& args, const std::string& spec) -> Parsed {
      const std::size_t k = args.empty() ? 1 : parse_count(args, spec);
      require(k >= 1, "engine spec '" + spec + "': addition needs k >= 1");
      require(k <= tn::kMaxSlicedIndices,
              "engine spec '" + spec + "': addition slices at most " +
                  std::to_string(tn::kMaxSlicedIndices) + " indices");
      return {std::to_string(k), [k](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<AdditionImage>(mgr, k, ctx);
              }};
    };
    m["contraction"] = [](const std::string& args, const std::string& spec) -> Parsed {
      std::uint32_t k1 = 4;
      std::uint32_t k2 = 4;
      if (!args.empty()) {
        const auto parts = split(args, ",");
        require(parts.size() == 2 && args.find(",,") == std::string::npos &&
                    args.front() != ',' && args.back() != ',',
                "engine spec '" + spec + "': contraction takes k1,k2");
        // Range-check the full-width counts, then narrow: a cast first would
        // read 4294967297 as 1.
        const std::size_t wide_k1 = parse_count(parts[0], spec);
        const std::size_t wide_k2 = parse_count(parts[1], spec);
        require(wide_k1 >= 1 && wide_k2 >= 1,
                "engine spec '" + spec + "': contraction needs k1, k2 >= 1");
        constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
        require(wide_k1 <= kMax && wide_k2 <= kMax,
                "engine spec '" + spec + "': contraction k1, k2 must be at most " +
                    std::to_string(kMax));
        k1 = static_cast<std::uint32_t>(wide_k1);
        k2 = static_cast<std::uint32_t>(wide_k2);
      }
      return {std::to_string(k1) + "," + std::to_string(k2),
              [k1, k2](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<ContractionImage>(mgr, k1, k2, ctx);
              }};
    };
    m["parallel"] = [](const std::string& args, const std::string& spec) -> Parsed {
      require(args.find(',') == std::string::npos,
              "engine spec '" + spec + "': parallel takes only a thread count, parallel[:t]");
      const std::size_t threads = args.empty() ? 0 : parse_count(args, spec);  // 0 = hardware
      (void)ParallelImage::worker_count(threads);  // refuse an out-of-range count now
      return {std::to_string(threads), [threads](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<ParallelImage>(mgr, threads, ctx);
              }};
    };
    m["statevector"] = [](const std::string& args, const std::string& spec) -> Parsed {
      const std::size_t wide_cap = args.empty() ? kDenseQubitCap : parse_count(args, spec);
      require(wide_cap >= 1 && wide_cap <= 30,
              "engine spec '" + spec + "': statevector cap must be between 1 and 30 qubits");
      const auto max_qubits = static_cast<std::uint32_t>(wide_cap);
      return {std::to_string(max_qubits), [max_qubits](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<StatevectorImage>(mgr, max_qubits, ctx);
              }};
    };
    m["sparse"] = [](const std::string& args, const std::string& spec) -> Parsed {
      const std::size_t max_nonzeros = args.empty() ? kSparseNonzeroCap : parse_count(args, spec);
      require(max_nonzeros >= 1,
              "engine spec '" + spec + "': sparse non-zero budget must be at least 1");
      return {std::to_string(max_nonzeros),
              [max_nonzeros](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<SparseImage>(mgr, max_nonzeros, ctx);
              }};
    };
    m["fallback"] = [](const std::string& args, const std::string& spec) -> Parsed {
      require(!args.empty() && args.front() != ';' && args.back() != ';' &&
                  args.find(";;") == std::string::npos,
              "engine spec '" + spec + "': fallback takes 'specA;specB[;...]'");
      std::vector<EngineSpec> chain;
      std::string canonical;
      for (const std::string& piece : split(args, ";")) {
        EngineSpec element = EngineSpec::parse(piece);
        require(element.method != "fallback",
                "engine spec '" + spec + "': fallback chains cannot nest");
        if (!canonical.empty()) canonical += ";";
        canonical += element.to_string();
        chain.push_back(std::move(element));
      }
      require(chain.size() >= 2,
              "engine spec '" + spec +
                  "': fallback needs at least two engine specs ('fallback:specA;specB')");
      return {canonical, [chain](tdd::Manager& mgr, ExecutionContext* ctx) {
                return std::make_unique<FallbackImage>(mgr, chain, ctx);
              }};
    };
    return m;
  }();
  return rows;
}

const Row* find_row(const std::string& method) {
  const auto it = registry().find(method);
  return it == registry().end() ? nullptr : &it->second;
}

}  // namespace

EngineSpec EngineSpec::parse(const std::string& text) {
  const std::string_view trimmed = trim(text);
  const auto colon = trimmed.find(':');
  EngineSpec spec{std::string(trimmed.substr(0, colon)),
                  colon == std::string_view::npos ? "" : std::string(trimmed.substr(colon + 1))};
  require(!spec.method.empty(), "engine spec '" + text + "': empty method name");
  require(colon == std::string_view::npos || !spec.args.empty(),
          "engine spec '" + text + "': trailing ':' without parameters");
  // Unregistered methods keep their raw args; make_engine rejects them
  // unless a factory was registered by then.
  if (const Row* row = find_row(spec.method)) spec.args = (*row)(spec.args, text).args;
  return spec;
}

std::string EngineSpec::to_string() const {
  return args.empty() ? method : method + ":" + args;
}

bool register_engine(const std::string& method, EngineFactory factory) {
  require(!method.empty() && method.find(':') == std::string::npos,
          "engine method names must be non-empty and colon-free");
  auto& rows = registry();
  const bool replaced = rows.count(method) != 0;
  // A custom row keeps its raw args as the canonical form and hands them,
  // unparsed, to the factory.
  rows[method] = [method, factory = std::move(factory)](const std::string& args,
                                                        const std::string&) -> Parsed {
    return {args, [spec = EngineSpec{method, args}, factory](tdd::Manager& mgr,
                                                              ExecutionContext* ctx) {
              return factory(mgr, spec, ctx);
            }};
  };
  return replaced;
}

std::vector<std::string> registered_engines() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, row] : registry()) names.push_back(name);
  return names;  // std::map keeps them sorted
}

std::unique_ptr<ImageComputer> make_engine(tdd::Manager& mgr, const EngineSpec& spec,
                                           ExecutionContext* ctx) {
  const Row* row = find_row(spec.method);
  if (row == nullptr) {
    std::string known;
    for (const auto& name : registered_engines()) {
      if (!known.empty()) known += ", ";
      known += name;
    }
    throw InvalidArgument("unknown engine '" + spec.method + "' (registered: " + known + ")");
  }
  return (*row)(spec.args, spec.to_string()).build(mgr, ctx);
}

std::unique_ptr<ImageComputer> make_engine(tdd::Manager& mgr, const std::string& spec,
                                           ExecutionContext* ctx) {
  return make_engine(mgr, EngineSpec::parse(spec), ctx);
}

}  // namespace qts
