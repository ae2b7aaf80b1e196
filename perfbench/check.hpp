// Shared by check.cpp (answer checks, end-to-end metrics) and layers.cpp
// (the traced run's per-layer replay).
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "serve_common.hpp"

namespace perfbench {

/// One JSON object, fields in insertion order. Numbers keep every digit
/// std::to_chars gives them; NaN (an empty sample) is written as null.
class JsonObject {
 public:
  void number(const std::string& key, double value) {
    std::string text = "null";
    if (std::isfinite(value)) {
      char buffer[32];
      const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer),
                                           value);
      (void)ec;
      text.assign(buffer, end);
    }
    fields_.emplace_back(key, std::move(text));
  }
  void integer(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void boolean(const std::string& key, bool value) {
    fields_.emplace_back(key, value ? "true" : "false");
  }
  void object(const std::string& key, const JsonObject& value) {
    fields_.emplace_back(key, value.dump());
  }
  void raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
  }

  /// `value` as a JSON string literal (control characters blanked).
  [[nodiscard]] static std::string quote(const std::string& value) {
    std::string text = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        text.push_back('\\');
      }
      text.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    text.push_back('"');
    return text;
  }

  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (const auto& [key, value] : fields_) {
      if (out.size() > 1) {
        out += ",";
      }
      out += "\"" + key + "\":" + value;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Failed output checks: a count and the first few messages.
struct Errors {
  std::size_t count = 0;
  std::vector<std::string> messages;

  void add(std::string message) {
    ++count;
    if (messages.size() < 20) {
      messages.push_back(std::move(message));
    }
  }
};

/// What one `drive` phase left behind.
struct Phase {
  std::vector<Record> records;
  /// (request line, daemon answer) of the golden subset.
  std::vector<std::pair<std::string, std::string>> golden;
  panagree::obs::MetricsSnapshot stats;
  bool stats_ok = false;
  double wall_s = 0.0;
  double late_p95_ms = 0.0;
  double late_max_ms = 0.0;
  bool exhausted = false;
};

[[nodiscard]] std::uint64_t counter_value(
    const panagree::obs::MetricsSnapshot& snap, const std::string& name);
[[nodiscard]] std::int64_t gauge_value(
    const panagree::obs::MetricsSnapshot& snap, const std::string& name);

/// Per-layer metrics of a traced run: `traced` is the phase run against
/// a daemon with PANAGREE_TRACE=`daemon_trace`, `untraced` the same
/// workload without tracing (for obs.trace_overhead_pct). `context` is
/// primed and, on rebase_read, already rebased through the program with
/// `rebase_ms` the in-process ShardRouter::rebase time of each step.
/// Writes the metrics to `metrics`, their sample counts to `samples`,
/// and the per-kind layer self times to `self_times`.
void traced_layers(Workload workload, const std::string& snapshot,
                   const Stream& stream, const Phase& untraced,
                   const Phase& traced, const std::string& daemon_trace,
                   panagree::servecfg::ServeContext& context,
                   double engine_prime_ms,
                   const std::vector<double>& rebase_ms, Errors& errors,
                   JsonObject& metrics, JsonObject& samples,
                   JsonObject& self_times);

}  // namespace perfbench
