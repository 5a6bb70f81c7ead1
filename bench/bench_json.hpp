/// \file bench_json.hpp
/// Machine-readable benchmark output shared by every harness.
///
/// Each bench prints its human table as before and additionally writes
/// `BENCH_<bench>.json` into the working directory on exit:
///
///   {"bench": "parallel", "hardware_concurrency": 8,
///    "records": [
///      {"name": "grover11x16/parallel:4", "wall_ms": 812.4,
///       "peak_nodes": 1234, "threads": 4, "timeout": false,
///       "degradations": 0, "table_nodes": 5678},
///      ...]}
///
/// "degradations" counts fallback-chain backend switches during the run (0
/// for plain engines) and "table_nodes" is the unique table's entry count at
/// the end of the run, one Manager::storage_stats() sample taken the same
/// way for every engine (bench_cell.hpp; 0 in harnesses that do not run
/// through it) — together they tell a regression hunt whether a slow cell
/// actually ran the engine its name claims, or fell down a chain.
///
/// A row that repeats its run (`repeats` > 1) reports the median wall time
/// and adds "repeats" and "spread_ms" (max − min of the runs' wall times).
///
/// "hardware_concurrency" records the machine the numbers came from: a
/// thread sweep on a 1-core container and the same sweep on an 8-way box
/// are different experiments.
///
/// so the perf trajectory can be tracked across PRs without scraping the
/// formatted tables.  A timed-out cell keeps wall_ms = the budget it burned
/// and sets "timeout": true.
#pragma once

#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qts::bench {

struct Record {
  std::string name;
  double wall_ms = 0.0;
  std::size_t peak_nodes = 0;
  std::size_t threads = 1;
  bool timeout = false;
  std::size_t degradations = 0;  ///< fallback-chain backend switches
  std::size_t table_nodes = 0;   ///< unique-table entries at the end of the run
  std::size_t repeats = 1;       ///< runs behind wall_ms (their median if > 1)
  double spread_ms = 0.0;        ///< max − min wall time of the repeats
};

/// Collects records and writes BENCH_<bench>.json when destroyed.
class JsonWriter {
 public:
  explicit JsonWriter(std::string bench) : bench_(std::move(bench)) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void add(Record r) { records_.push_back(std::move(r)); }

  ~JsonWriter() {
    const std::string path = "BENCH_" + bench_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "warning: cannot write " << path << "\n";
      return;
    }
    os << "{\"bench\": \"" << escaped(bench_) << "\", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ", \"records\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (i != 0) os << ",";
      os << "\n  {\"name\": \"" << escaped(r.name) << "\", \"wall_ms\": " << fmt(r.wall_ms)
         << ", \"peak_nodes\": " << r.peak_nodes << ", \"threads\": " << r.threads
         << ", \"timeout\": " << (r.timeout ? "true" : "false")
         << ", \"degradations\": " << r.degradations << ", \"table_nodes\": " << r.table_nodes;
      if (r.repeats > 1) {
        os << ", \"repeats\": " << r.repeats << ", \"spread_ms\": " << fmt(r.spread_ms);
      }
      os << "}";
    }
    os << "\n]}\n";
    std::cerr << "wrote " << path << " (" << records_.size() << " record(s))\n";
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static std::string fmt(double ms) {
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << ms;
    return os.str();
  }

  std::string bench_;
  std::vector<Record> records_;
};

}  // namespace qts::bench
