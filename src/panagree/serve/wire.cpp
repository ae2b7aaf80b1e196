#include "panagree/serve/wire.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "panagree/scenario/metrics.hpp"
#include "panagree/util/json.hpp"

namespace panagree::serve {

namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

[[noreturn]] void reject(const std::string& what) {
  throw ProtocolError("protocol: " + what);
}

// Typed accessors over the shared JSON model; every mismatch is a
// protocol error naming the offending field.

[[nodiscard]] const Object& as_object(const Value& value, const char* what) {
  const auto* object =
      std::get_if<std::unique_ptr<Object>>(&value.data);
  if (object == nullptr) {
    reject(std::string(what) + " must be an object");
  }
  return **object;
}

[[nodiscard]] const Array& as_array(const Value& value, const char* what) {
  const auto* array = std::get_if<std::unique_ptr<Array>>(&value.data);
  if (array == nullptr) {
    reject(std::string(what) + " must be an array");
  }
  return **array;
}

[[nodiscard]] const std::string& as_string(const Value& value,
                                           const char* what) {
  const auto* text = std::get_if<std::string>(&value.data);
  if (text == nullptr) {
    reject(std::string(what) + " must be a string");
  }
  return *text;
}

[[nodiscard]] std::uint64_t as_uint(const Value& value, const char* what) {
  const auto* integer = std::get_if<std::uint64_t>(&value.data);
  if (integer == nullptr) {
    reject(std::string(what) + " must be a non-negative integer");
  }
  return *integer;
}

/// Signed integer: the reader parses negative integrals as doubles
/// (integer-first applies to non-negative tokens only), so accept both
/// representations as long as the value is integral and in range.
[[nodiscard]] std::int64_t as_int(const Value& value, const char* what) {
  if (const auto* integer = std::get_if<std::uint64_t>(&value.data)) {
    if (*integer >
        static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::max())) {
      reject(std::string(what) + " out of range");
    }
    return static_cast<std::int64_t>(*integer);
  }
  if (const auto* number = std::get_if<double>(&value.data)) {
    const double rounded = std::nearbyint(*number);
    if (rounded != *number ||
        *number < static_cast<double>(
                      std::numeric_limits<std::int64_t>::min()) ||
        // INT64_MAX rounds up to 2^63 as a double: compare against 2^63
        // exclusively, or 2^63 itself passes and the cast overflows.
        *number >= 0x1p63) {
      reject(std::string(what) + " must be an integer");
    }
    return static_cast<std::int64_t>(rounded);
  }
  reject(std::string(what) + " must be an integer");
}

[[nodiscard]] bool as_bool(const Value& value, const char* what) {
  const auto* flag = std::get_if<bool>(&value.data);
  if (flag == nullptr) {
    reject(std::string(what) + " must be a boolean");
  }
  return *flag;
}

[[nodiscard]] const Value* find(const Object& object, std::string_view key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

[[nodiscard]] const Value& require_field(const Object& object,
                                         const char* key) {
  const Value* value = find(object, key);
  if (value == nullptr) {
    reject(std::string("missing field \"") + key + "\"");
  }
  return *value;
}

[[nodiscard]] AsId as_as_id(const Value& value, const char* what) {
  const std::uint64_t raw = as_uint(value, what);
  if (raw >= topology::kInvalidAs) {
    reject(std::string(what) + " out of range");
  }
  return static_cast<AsId>(raw);
}

[[nodiscard]] scenario::Delta parse_delta(const Object& object) {
  scenario::Delta delta;
  if (const Value* add = find(object, "add")) {
    for (const Value& entry : as_array(*add, "\"add\"")) {
      const Object& link = as_object(entry, "\"add\" entry");
      scenario::LinkChange change;
      change.a = as_as_id(require_field(link, "a"), "\"a\"");
      change.b = as_as_id(require_field(link, "b"), "\"b\"");
      const std::string& type =
          as_string(require_field(link, "type"), "\"type\"");
      if (type == "peering") {
        change.type = topology::LinkType::kPeering;
      } else if (type == "transit") {
        change.type = topology::LinkType::kProviderCustomer;
      } else {
        reject("unknown link type \"" + type + "\"");
      }
      delta.add.push_back(change);
    }
  }
  if (const Value* remove = find(object, "remove")) {
    for (const Value& entry : as_array(*remove, "\"remove\"")) {
      const Array& pair = as_array(entry, "\"remove\" entry");
      if (pair.size() != 2) {
        reject("\"remove\" entries must be [a, b] pairs");
      }
      delta.remove.emplace_back(as_as_id(pair[0], "\"remove\" id"),
                                as_as_id(pair[1], "\"remove\" id"));
    }
  }
  return delta;
}

/// json::parse with ProtocolError rethrow - reader errors are protocol
/// errors at this layer.
[[nodiscard]] Value parse_json_line(std::string_view line) {
  try {
    return util::json::parse(line);
  } catch (const util::ParseError& e) {
    reject(e.what());
  }
}

void append_uint(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  out.append(buffer, ptr);
}

void append_int(std::string& out, std::int64_t value) {
  char buffer[24];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  out.append(buffer, ptr);
}

/// The one path-array writer, over any range of Length3Path values (a
/// cached set's grc()/ma() or a span of triples).
template <typename Paths>
void append_path_array(std::string& out, const Paths& paths) {
  out.push_back('[');
  bool first = true;
  for (const diversity::Length3Path path : paths) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out.push_back('[');
    append_uint(out, path.src);
    out.push_back(',');
    append_uint(out, path.mid);
    out.push_back(',');
    append_uint(out, path.dst);
    out.push_back(']');
  }
  out.push_back(']');
}

void append_response_head(std::string& out, std::uint64_t id, bool ok) {
  out += "{\"v\":";
  append_uint(out, kProtocolVersion);
  out += ",\"id\":";
  append_uint(out, id);
  out += ok ? ",\"ok\":true" : ",\"ok\":false";
}

template <typename Paths>
void append_paths_body(std::string& out, std::uint64_t id, AsId source,
                       const Paths& grc, const Paths& ma) {
  append_response_head(out, id, true);
  out += ",\"kind\":\"paths\",\"source\":";
  append_uint(out, source);
  out += ",\"grc\":";
  append_path_array(out, grc);
  out += ",\"ma\":";
  append_path_array(out, ma);
  out += "}\n";
}

/// Slow-query kind names, indexed by code (0-5 mirror RequestKind).
constexpr std::string_view kSlowKindNames[] = {
    "paths",   "diversity", "whatif",  "stats",
    "slowlog", "rebase",    "error",   "unknown"};

}  // namespace

std::string_view slow_kind_name(std::uint64_t code) noexcept {
  return code <= kSlowKindUnknown ? kSlowKindNames[code]
                                  : kSlowKindNames[kSlowKindUnknown];
}

std::uint64_t slow_kind_code(std::string_view name) {
  for (std::uint64_t code = 0; code <= kSlowKindUnknown; ++code) {
    if (kSlowKindNames[code] == name) {
      return code;
    }
  }
  reject("unknown slow-query kind \"" + std::string(name) + "\"");
}

Request parse_request(std::string_view line, std::uint64_t* id_out) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const Value root = parse_json_line(line);
  const Object& object = as_object(root, "request");
  Request request;
  request.id = as_uint(require_field(object, "id"), "\"id\"");
  if (id_out != nullptr) {
    *id_out = request.id;
  }
  const std::uint64_t version =
      as_uint(require_field(object, "v"), "\"v\"");
  if (version != kProtocolVersion) {
    reject("unsupported protocol version " + std::to_string(version) +
           " (server speaks " + std::to_string(kProtocolVersion) + ")");
  }
  const std::string& kind =
      as_string(require_field(object, "kind"), "\"kind\"");
  if (kind == "paths" || kind == "diversity") {
    request.kind = kind == "paths" ? RequestKind::kPaths
                                   : RequestKind::kDiversity;
    request.source =
        as_as_id(require_field(object, "source"), "\"source\"");
  } else if (kind == "whatif") {
    request.kind = RequestKind::kWhatIf;
    request.delta = parse_delta(object);
    if (request.delta.empty()) {
      reject("whatif request with an empty delta");
    }
  } else if (kind == "stats") {
    request.kind = RequestKind::kStats;
  } else if (kind == "slowlog") {
    request.kind = RequestKind::kSlowLog;
  } else if (kind == "rebase") {
    request.kind = RequestKind::kRebase;
    request.delta = parse_delta(object);
    if (request.delta.empty()) {
      reject("rebase request with an empty delta");
    }
  } else {
    reject("unknown kind \"" + kind + "\"");
  }
  return request;
}

void append_json_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; the engine never produces them, but the
    // writer must not emit unparsable bytes if a weight ever does.
    out += value > 0 ? "1e999" : (value < 0 ? "-1e999" : "0");
    return;
  }
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  out.append(buffer, ptr);
}

void append_json_string(std::string& out, std::string_view value) {
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_paths_response(std::string& out, std::uint64_t id, AsId source,
                           const scenario::SourcePathSet& sets) {
  append_paths_body(out, id, source, sets.grc(), sets.ma());
}

void append_paths_response(std::string& out, std::uint64_t id, AsId source,
                           std::span<const diversity::Length3Path> grc,
                           std::span<const diversity::Length3Path> ma) {
  append_paths_body(out, id, source, grc, ma);
}

void append_diversity_response(std::string& out, std::uint64_t id,
                               AsId source, const DiversityResult& result) {
  append_response_head(out, id, true);
  out += ",\"kind\":\"diversity\",\"source\":";
  append_uint(out, source);
  out += ",\"grc_paths\":";
  append_uint(out, result.grc_paths);
  out += ",\"ma_paths\":";
  append_uint(out, result.ma_paths);
  out += ",\"grc_pairs\":";
  append_uint(out, result.grc_pairs);
  out += ",\"ma_extra_pairs\":";
  append_uint(out, result.ma_extra_pairs);
  out += ",\"mean_best_geodistance_km\":";
  append_json_double(out, result.mean_best_geodistance_km);
  out += ",\"transit_fees\":";
  append_json_double(out, result.transit_fees);
  out += "}\n";
}

void append_whatif_response(std::string& out, std::uint64_t id,
                            const WhatIfResult& result) {
  append_response_head(out, id, true);
  out += ",\"kind\":\"whatif\",\"paths\":";
  append_json_double(out, result.paths_delta);
  out += ",\"pairs\":";
  append_json_double(out, result.pairs_delta);
  out += ",\"mean_km\":";
  append_json_double(out, result.mean_km_delta);
  out += ",\"fees\":";
  append_json_double(out, result.fees_delta);
  out += ",\"utility\":";
  append_json_double(out, result.utility);
  out += ",\"recomputed_sources\":";
  append_uint(out, result.recomputed_sources);
  out += ",\"cached_sources\":";
  append_uint(out, result.cached_sources);
  out += ",\"ball_size\":";
  append_uint(out, result.ball_size);
  out += "}\n";
}

void append_error_response(std::string& out, std::uint64_t id,
                           std::string_view message) {
  append_response_head(out, id, false);
  out += ",\"error\":";
  append_json_string(out, message);
  out += "}\n";
}

void append_rebase_response(std::string& out, std::uint64_t id,
                            std::uint64_t epoch) {
  append_response_head(out, id, true);
  out += ",\"kind\":\"rebase\",\"epoch\":";
  append_uint(out, epoch);
  out += "}\n";
}

void append_stats_response(std::string& out, std::uint64_t id,
                           std::string_view build, std::uint64_t epoch,
                           const obs::MetricsSnapshot& metrics) {
  append_response_head(out, id, true);
  out += ",\"kind\":\"stats\",\"build\":";
  append_json_string(out, build);
  out += ",\"epoch\":";
  append_uint(out, epoch);
  out += ",\"counters\":{";
  bool first = true;
  for (const obs::CounterSample& counter : metrics.counters) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_json_string(out, counter.name);
    out.push_back(':');
    append_uint(out, counter.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const obs::GaugeSample& gauge : metrics.gauges) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_json_string(out, gauge.name);
    out.push_back(':');
    append_int(out, gauge.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const obs::HistogramSample& histogram : metrics.histograms) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    append_json_string(out, histogram.name);
    out += ":{\"count\":";
    append_uint(out, histogram.count);
    out += ",\"sum\":";
    append_uint(out, histogram.sum);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [bucket, count] : histogram.buckets) {
      if (!first_bucket) {
        out.push_back(',');
      }
      first_bucket = false;
      out.push_back('[');
      append_uint(out, bucket);
      out.push_back(',');
      append_uint(out, count);
      out.push_back(']');
    }
    out += "]}";
  }
  out += "}}\n";
}

void append_slowlog_response(std::string& out, std::uint64_t id,
                             std::uint64_t threshold_ns,
                             std::span<const obs::SlowQueryRecord> entries) {
  append_response_head(out, id, true);
  out += ",\"kind\":\"slowlog\",\"threshold_ns\":";
  append_uint(out, threshold_ns);
  out += ",\"entries\":[";
  bool first = true;
  for (const obs::SlowQueryRecord& entry : entries) {
    if (!first) {
      out.push_back(',');
    }
    first = false;
    out += "{\"wire_id\":";
    append_uint(out, entry.wire_id);
    out += ",\"kind\":\"";
    out += slow_kind_name(entry.kind);
    out += "\",\"source\":";
    append_uint(out, entry.source);
    out += ",\"delta_links\":";
    append_uint(out, entry.delta_links);
    out += ",\"wall_ns\":";
    append_uint(out, entry.wall_ns);
    out += ",\"queue_ns\":";
    append_uint(out, entry.queue_ns);
    out += ",\"parse_ns\":";
    append_uint(out, entry.parse_ns);
    out += ",\"engine_ns\":";
    append_uint(out, entry.engine_ns);
    out += ",\"serialize_ns\":";
    append_uint(out, entry.serialize_ns);
    out += ",\"send_ns\":";
    append_uint(out, entry.send_ns);
    out.push_back('}');
  }
  out += "]}\n";
}

SlowLogResult parse_slowlog_response(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const Value root = parse_json_line(line);
  const Object& object = as_object(root, "slowlog response");
  if (!as_bool(require_field(object, "ok"), "\"ok\"")) {
    const Value* error = find(object, "error");
    reject("slowlog request failed: " +
           (error != nullptr ? as_string(*error, "\"error\"")
                             : std::string("unknown error")));
  }
  const std::string& kind =
      as_string(require_field(object, "kind"), "\"kind\"");
  if (kind != "slowlog") {
    reject("expected a slowlog response, got kind \"" + kind + "\"");
  }
  SlowLogResult result;
  result.id = as_uint(require_field(object, "id"), "\"id\"");
  result.threshold_ns =
      as_uint(require_field(object, "threshold_ns"), "\"threshold_ns\"");
  for (const Value& value :
       as_array(require_field(object, "entries"), "\"entries\"")) {
    const Object& body = as_object(value, "slowlog entry");
    obs::SlowQueryRecord entry;
    entry.wire_id =
        as_uint(require_field(body, "wire_id"), "\"wire_id\"");
    entry.kind =
        slow_kind_code(as_string(require_field(body, "kind"), "\"kind\""));
    entry.source = as_uint(require_field(body, "source"), "\"source\"");
    entry.delta_links =
        as_uint(require_field(body, "delta_links"), "\"delta_links\"");
    entry.wall_ns = as_uint(require_field(body, "wall_ns"), "\"wall_ns\"");
    entry.queue_ns =
        as_uint(require_field(body, "queue_ns"), "\"queue_ns\"");
    entry.parse_ns =
        as_uint(require_field(body, "parse_ns"), "\"parse_ns\"");
    entry.engine_ns =
        as_uint(require_field(body, "engine_ns"), "\"engine_ns\"");
    entry.serialize_ns =
        as_uint(require_field(body, "serialize_ns"), "\"serialize_ns\"");
    entry.send_ns = as_uint(require_field(body, "send_ns"), "\"send_ns\"");
    result.entries.push_back(entry);
  }
  return result;
}

StatsResult parse_stats_response(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  const Value root = parse_json_line(line);
  const Object& object = as_object(root, "stats response");
  if (!as_bool(require_field(object, "ok"), "\"ok\"")) {
    const Value* error = find(object, "error");
    reject("stats request failed: " +
           (error != nullptr ? as_string(*error, "\"error\"")
                             : std::string("unknown error")));
  }
  const std::string& kind =
      as_string(require_field(object, "kind"), "\"kind\"");
  if (kind != "stats") {
    reject("expected a stats response, got kind \"" + kind + "\"");
  }
  StatsResult result;
  result.id = as_uint(require_field(object, "id"), "\"id\"");
  result.build = as_string(require_field(object, "build"), "\"build\"");
  result.epoch = as_uint(require_field(object, "epoch"), "\"epoch\"");
  const Object& counters =
      as_object(require_field(object, "counters"), "\"counters\"");
  for (const auto& [name, value] : counters) {
    result.metrics.counters.push_back(
        {name, as_uint(value, "counter value")});
  }
  const Object& gauges =
      as_object(require_field(object, "gauges"), "\"gauges\"");
  for (const auto& [name, value] : gauges) {
    result.metrics.gauges.push_back({name, as_int(value, "gauge value")});
  }
  const Object& histograms =
      as_object(require_field(object, "histograms"), "\"histograms\"");
  for (const auto& [name, value] : histograms) {
    const Object& body = as_object(value, "histogram");
    obs::HistogramSample sample;
    sample.name = name;
    sample.count = as_uint(require_field(body, "count"), "\"count\"");
    sample.sum = as_uint(require_field(body, "sum"), "\"sum\"");
    for (const Value& entry :
         as_array(require_field(body, "buckets"), "\"buckets\"")) {
      const Array& pair = as_array(entry, "\"buckets\" entry");
      if (pair.size() != 2) {
        reject("\"buckets\" entries must be [bucket, count] pairs");
      }
      const std::uint64_t bucket = as_uint(pair[0], "bucket index");
      if (bucket >= obs::kHistogramBuckets) {
        reject("bucket index out of range");
      }
      sample.buckets.emplace_back(static_cast<std::uint32_t>(bucket),
                                  as_uint(pair[1], "bucket count"));
    }
    result.metrics.histograms.push_back(std::move(sample));
  }
  return result;
}

}  // namespace panagree::serve
