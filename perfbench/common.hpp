// Shared pieces of perfbench-client's phases: the workload names, the
// stream and record file formats, flag parsing and percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] inline void die(const std::string& message) {
  std::cerr << "perfbench-client: " << message << "\n";
  std::exit(2);
}

/// `--key value` pairs after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        die("expected --key value pairs, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] const std::string& str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      die("missing --" + key);
    }
    return it->second;
  }

  [[nodiscard]] std::uint64_t num(const std::string& key) const {
    const std::string& text = str(key);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') {
      die("--" + key + " expects a non-negative integer, got '" + text +
          "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

enum class Workload { kWhatIfScan, kLookupRead, kRebaseRead };

[[nodiscard]] inline Workload parse_workload(const std::string& name) {
  if (name == "whatif_scan") {
    return Workload::kWhatIfScan;
  }
  if (name == "lookup_read") {
    return Workload::kLookupRead;
  }
  if (name == "rebase_read") {
    return Workload::kRebaseRead;
  }
  die("unknown workload '" + name + "'");
}

/// The generated inputs of one run (written by `gen`, read by `drive`
/// and `check`). `deltas` are peering links (a, b): the what-if stream of
/// whatif_scan, the deployment program of rebase_read. `sources` is the
/// read order of lookup_read and rebase_read, cycled when exhausted.
struct Stream {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deltas;
  std::vector<std::uint32_t> sources;
  std::uint64_t think_ms = 0;
  std::uint64_t read_rate_hz = 0;
};

inline void write_stream(const std::string& path, const Stream& stream) {
  std::ofstream out(path);
  out << "think_ms " << stream.think_ms << "\nread_rate_hz "
      << stream.read_rate_hz << "\n";
  for (const auto& [a, b] : stream.deltas) {
    out << "delta " << a << ' ' << b << "\n";
  }
  for (const std::uint32_t src : stream.sources) {
    out << "source " << src << "\n";
  }
  if (!out) {
    die("cannot write " + path);
  }
}

[[nodiscard]] inline Stream read_stream(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    die("cannot read " + path);
  }
  Stream stream;
  std::string tag;
  while (in >> tag) {
    if (tag == "think_ms") {
      in >> stream.think_ms;
    } else if (tag == "read_rate_hz") {
      in >> stream.read_rate_hz;
    } else if (tag == "delta") {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      in >> a >> b;
      stream.deltas.emplace_back(a, b);
    } else if (tag == "source") {
      std::uint32_t src = 0;
      in >> src;
      stream.sources.push_back(src);
    } else {
      die("bad stream line tag '" + tag + "' in " + path);
    }
  }
  return stream;
}

/// Wire request lines, built the same way for the daemon and the
/// in-process golden replay.
[[nodiscard]] inline std::string source_request(std::uint64_t id,
                                                std::string_view kind,
                                                std::uint32_t src) {
  return "{\"v\":1,\"id\":" + std::to_string(id) + ",\"kind\":\"" +
         std::string(kind) + "\",\"source\":" + std::to_string(src) + "}";
}

[[nodiscard]] inline std::string delta_request(std::uint64_t id,
                                               std::string_view kind,
                                               std::uint32_t a,
                                               std::uint32_t b) {
  return "{\"v\":1,\"id\":" + std::to_string(id) + ",\"kind\":\"" +
         std::string(kind) + "\",\"add\":[{\"a\":" + std::to_string(a) +
         ",\"b\":" + std::to_string(b) + ",\"type\":\"peering\"}]}";
}

/// One request as the client saw it. Times are steady-clock ns; `due` is
/// the open-loop schedule time (0 for closed-loop requests). The fields
/// after `ok` are read from the response: path counts of paths and
/// diversity answers, the sweep accounting and utility of what-ifs, the
/// epoch of rebases.
struct Record {
  std::uint64_t id = 0;
  char kind = '?';  // 'w' whatif, 'p' paths, 'd' diversity, 'r' rebase
  std::uint64_t due = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool ok = false;
  std::uint32_t source = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t grc = 0;
  std::uint64_t ma = 0;
  std::uint64_t recomputed = 0;
  std::uint64_t cached = 0;
  std::uint64_t ball = 0;
  std::uint64_t epoch = 0;
  std::string utility = "-";

  [[nodiscard]] double latency_ms() const {
    return ok ? static_cast<double>(received - sent) / 1e6
              : std::numeric_limits<double>::infinity();
  }
  /// Open-loop latency: from when the request was due, so a stall also
  /// charges the requests it delayed.
  [[nodiscard]] double due_latency_ms() const {
    return ok ? static_cast<double>(received - due) / 1e6
              : std::numeric_limits<double>::infinity();
  }
};

inline void write_records(const std::string& path,
                          const std::vector<Record>& records) {
  std::ofstream out(path);
  for (const Record& r : records) {
    out << r.id << ' ' << r.kind << ' ' << r.due << ' ' << r.sent << ' '
        << r.received << ' ' << r.ok << ' ' << r.source << ' ' << r.a << ' '
        << r.b << ' ' << r.grc << ' ' << r.ma << ' ' << r.recomputed << ' '
        << r.cached << ' ' << r.ball << ' ' << r.epoch << ' ' << r.utility
        << "\n";
  }
  if (!out) {
    die("cannot write " + path);
  }
}

[[nodiscard]] inline std::vector<Record> read_records(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    die("cannot read " + path);
  }
  std::vector<Record> records;
  Record r;
  while (in >> r.id >> r.kind >> r.due >> r.sent >> r.received >> r.ok >>
         r.source >> r.a >> r.b >> r.grc >> r.ma >> r.recomputed >>
         r.cached >> r.ball >> r.epoch >> r.utility) {
    records.push_back(r);
  }
  return records;
}

/// Nearest-rank percentile: the smallest sample with at least p percent
/// of the samples at or below it - always an observed value. NaN for an
/// empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values,
                                       double p) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// How many samples lie strictly above the nearest-rank p-th percentile.
[[nodiscard]] inline std::size_t count_beyond(
    const std::vector<double>& values, double p) {
  const double cut = percentile(values, p);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

/// The phases of one run, one perfbench-client subcommand each (see
/// client.cpp).
int cmd_gen(const Flags& flags);
int cmd_drive(const Flags& flags);
int cmd_check(const Flags& flags);

}  // namespace perfbench
