// Machine-readable bench results: each bench appends named wall-clock (and
// free-form numeric) measurements and writes one BENCH_<bench>.json file,
// so the perf trajectory of the repo is diffable across PRs without
// scraping stdout tables. No third-party JSON dependency - the schema is
// flat: {"bench", "host": {"nproc", "build_type"}, "topology": {"ases",
// "links"}, "results": [{"name", "wall_ms", ...extras}]}. "host" records
// the cpus the bench could run on (paths::resolve_thread_count(0)) and
// panagree's own CMake build type, so a row can be read against the
// machine and build that produced it.
//
// Output lands in $PANAGREE_BENCH_JSON_DIR (default: the working
// directory). perf_micro uses google-benchmark's own JSON reporter
// instead; this helper serves the plain-main benches.
#pragma once

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "panagree/obs/build_info.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/topology/graph.hpp"

namespace panagree::benchjson {

class ResultWriter {
 public:
  ResultWriter(std::string bench_name, const topology::Graph& graph)
      : bench_name_(std::move(bench_name)),
        num_ases_(graph.num_ases()),
        num_links_(graph.num_links()) {}

  /// One measurement row: a name, its wall-clock milliseconds, and
  /// arbitrary extra numeric fields (e.g. scenario counts, speedups).
  void add(const std::string& name, double wall_ms,
           std::vector<std::pair<std::string, double>> extras = {}) {
    rows_.push_back({name, wall_ms, std::move(extras)});
  }

  /// Writes BENCH_<bench>.json; failures warn on stderr but never fail the
  /// bench itself.
  void write() const {
    std::string dir = ".";
    if (const char* env = std::getenv("PANAGREE_BENCH_JSON_DIR")) {
      if (*env != '\0') {
        dir = env;
      }
    }
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "[bench] cannot write " << path << "\n";
      return;
    }
    out << "{\n  \"bench\": \"" << escaped(bench_name_) << "\",\n"
        << "  \"host\": {\"nproc\": " << paths::resolve_thread_count(0)
        << ", \"build_type\": \""
        << escaped(std::string(obs::build_info().build_type)) << "\"},\n"
        << "  \"topology\": {\"ases\": " << num_ases_
        << ", \"links\": " << num_links_ << "},\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out << "    {\"name\": \"" << escaped(row.name)
          << "\", \"wall_ms\": " << row.wall_ms;
      for (const auto& [key, value] : row.extras) {
        out << ", \"" << escaped(key) << "\": " << value;
      }
      out << (i + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out << "  ]\n}\n";
    std::cerr << "[bench] wrote " << path << "\n";
  }

 private:
  struct Row {
    std::string name;
    double wall_ms = 0.0;
    std::vector<std::pair<std::string, double>> extras;
  };

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
      }
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::size_t num_ases_;
  std::size_t num_links_;
  std::vector<Row> rows_;
};

/// Wall-clock stopwatch for the result rows.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace panagree::benchjson
