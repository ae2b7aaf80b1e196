// The wire protocol of the serving layer: versioned, newline-delimited
// JSON over a byte stream, no third-party dependencies.
//
// Every request and every response is one JSON object on one line. The
// protocol is versioned by the "v" field; a server rejects versions other
// than kProtocolVersion with an error response instead of guessing. Three
// request kinds mirror the query engine's operations, plus two
// introspection kinds and one admin kind:
//
//   {"v":1,"id":7,"kind":"paths","source":42}
//   {"v":1,"id":8,"kind":"diversity","source":42}
//   {"v":1,"id":9,"kind":"whatif","add":[{"a":1,"b":2,"type":"peering"}],
//    "remove":[[3,4]]}
//   {"v":1,"id":10,"kind":"stats"}
//   {"v":1,"id":11,"kind":"slowlog"}
//   {"v":1,"id":12,"kind":"rebase","add":[{"a":1,"b":2,"type":"peering"}]}
//
// ("transit" links follow Graph's convention: "a" is the provider, "b"
// the customer. "add"/"remove" both default to empty.)
//
// `rebase` is the admin kind: it adopts the delta into the serving
// baseline (every subsequent paths/diversity/whatif answers against the
// rebased topology) and responds {"v":1,"id":12,"ok":true,
// "kind":"rebase","epoch":E} with the post-rebase epoch. The engine
// swaps state and epoch together, so a concurrent request is answered
// wholly from the old epoch or wholly from the new one.
//
// A stats response carries the server's build identity and a snapshot of
// the obs registry (counters/gauges/histograms, names sorted ascending,
// histograms as sparse [bucket, count] pairs). Its bytes are a pure
// function of the snapshot contents - same fixed-field-order rule as
// every other response - but NOT of the session alone (counters are
// process-wide), so stats stays out of byte-identity diffs.
//
// A slowlog response carries the server's slow-query ring (obs::
// SlowQueryLog): the capture threshold plus one entry per captured
// request - wire id, kind, source, delta link count, and the per-stage
// nanosecond breakdown (queue/parse/engine/serialize/send, which sum to
// wall_ns by construction), entries sorted slowest-first. Same
// byte-stability rule as stats: the bytes are a pure function of
// (id, threshold, entries) and the parse/serialize round trip is
// byte-identical, but the *contents* are process-wide runtime state, so
// slowlog is excluded from byte-identity diffs against --direct exactly
// like stats. A request's own slowlog entry is recorded after its
// response is sent, so a slowlog response never contains itself.
//
// Responses echo the request id, carry "ok", and serialize with a *fixed
// field order and number format* (std::to_chars, shortest round-trip for
// doubles): a response's bytes are a pure function of its contents, which
// is what lets the CI smoke job and serve_test diff server output against
// direct library calls byte-for-byte.
//
// Parsing rides on util/json.hpp (the shared recursive-descent reader).
// Malformed input throws ProtocolError - the server turns that into an
// error response and keeps the connection alive.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include <vector>

#include "panagree/diversity/length3.hpp"
#include "panagree/obs/export.hpp"
#include "panagree/obs/slowlog.hpp"
#include "panagree/scenario/overlay.hpp"
#include "panagree/util/error.hpp"

namespace panagree::scenario {
class SourcePathSet;
}  // namespace panagree::scenario

namespace panagree::serve {

using topology::AsId;

/// Malformed or unsupported request line (bad JSON, wrong version,
/// unknown kind, missing fields). A ParseError: requests are external
/// input, not caller bugs.
class ProtocolError : public util::ParseError {
 public:
  using util::ParseError::ParseError;
};

inline constexpr std::uint32_t kProtocolVersion = 1;

enum class RequestKind : std::uint8_t {
  kPaths,
  kDiversity,
  kWhatIf,
  kStats,
  kSlowLog,
  kRebase,
};

/// SlowQueryRecord.kind codes as they appear on the wire. Codes 0-5 are
/// the RequestKind values; kSlowKindError marks requests that failed
/// (their kind may be unknown) and kSlowKindUnknown absorbs any
/// out-of-range code a future server might emit. Only the *names* ever
/// hit the wire, so renumbering these constants is wire-compatible.
inline constexpr std::uint64_t kSlowKindError = 6;
inline constexpr std::uint64_t kSlowKindUnknown = 7;

/// Wire name of a slow-query kind code ("paths", ..., "error",
/// "unknown"); out-of-range codes map to "unknown".
[[nodiscard]] std::string_view slow_kind_name(std::uint64_t code) noexcept;

/// Inverse of slow_kind_name; throws ProtocolError for names that are
/// not one of the eight.
[[nodiscard]] std::uint64_t slow_kind_code(std::string_view name);

/// One parsed request line.
struct Request {
  std::uint64_t id = 0;
  RequestKind kind = RequestKind::kPaths;
  /// The queried source (paths / diversity).
  AsId source = 0;
  /// The candidate deployment (whatif).
  scenario::Delta delta;
};

/// Parses one request line (the newline itself may be present or already
/// stripped). Throws ProtocolError on anything it cannot serve; when
/// `id_out` is non-null it receives the request id as soon as it is
/// known, so error responses can echo it even for requests that fail
/// later checks (unknown kind, bad delta, ...).
[[nodiscard]] Request parse_request(std::string_view line,
                                    std::uint64_t* id_out = nullptr);

/// Per-source diversity/geodistance aggregate of a diversity response -
/// the serving shape of scenario::SourceContribution with the mean
/// division applied.
struct DiversityResult {
  std::size_t grc_paths = 0;
  std::size_t ma_paths = 0;
  std::size_t grc_pairs = 0;
  std::size_t ma_extra_pairs = 0;
  double mean_best_geodistance_km = 0.0;
  double transit_fees = 0.0;

  friend bool operator==(const DiversityResult&,
                         const DiversityResult&) = default;
};

/// Scored what-if deployment: the metrics delta against the engine's
/// current state plus the sweep accounting (which is deterministic per
/// (state, delta) - epoch batching never changes it).
struct WhatIfResult {
  double paths_delta = 0.0;
  double pairs_delta = 0.0;
  double mean_km_delta = 0.0;
  double fees_delta = 0.0;
  double utility = 0.0;
  std::size_t recomputed_sources = 0;
  std::size_t cached_sources = 0;
  std::size_t ball_size = 0;

  friend bool operator==(const WhatIfResult&, const WhatIfResult&) = default;
};

// Response writers: each appends exactly one newline-terminated JSON
// object to `out`. Field order and number formatting are part of the
// protocol (byte-identity contract, see the header comment).
/// Writes the GRC and MA paths of `sets` as [[s,m,d],...] arrays,
/// straight out of the set (the engine's cached one for sampled sources).
void append_paths_response(std::string& out, std::uint64_t id, AsId source,
                           const scenario::SourcePathSet& sets);
/// perfbench's binding (its layer replay): the same bytes from triples,
/// kept until perfbench calls the set overload above.
void append_paths_response(std::string& out, std::uint64_t id, AsId source,
                           std::span<const diversity::Length3Path> grc,
                           std::span<const diversity::Length3Path> ma);
void append_diversity_response(std::string& out, std::uint64_t id,
                               AsId source, const DiversityResult& result);
void append_whatif_response(std::string& out, std::uint64_t id,
                            const WhatIfResult& result);
void append_error_response(std::string& out, std::uint64_t id,
                           std::string_view message);
/// Serializes a rebase acknowledgment carrying the post-rebase epoch.
void append_rebase_response(std::string& out, std::uint64_t id,
                            std::uint64_t epoch);

/// Serializes a stats response: build identity + registry snapshot.
/// Field order: v, id, ok, kind, build, epoch, counters, gauges,
/// histograms; metric names in each section ascending. Bytes are a pure
/// function of (id, build, epoch, metrics).
void append_stats_response(std::string& out, std::uint64_t id,
                           std::string_view build, std::uint64_t epoch,
                           const obs::MetricsSnapshot& metrics);

/// Parsed stats response (client side of `stats`).
struct StatsResult {
  std::uint64_t id = 0;
  std::string build;
  std::uint64_t epoch = 0;
  obs::MetricsSnapshot metrics;

  friend bool operator==(const StatsResult&, const StatsResult&) = default;
};

/// Parses one stats response line. Throws ProtocolError on malformed
/// input or an error response. append_stats_response(parse(x)) == x:
/// the round trip is byte-stable (tested).
[[nodiscard]] StatsResult parse_stats_response(std::string_view line);

/// Serializes a slowlog response. Field order: v, id, ok, kind,
/// threshold_ns, entries; each entry: wire_id, kind (name string),
/// source, delta_links, wall_ns, queue_ns, parse_ns, engine_ns,
/// serialize_ns, send_ns. `entries` must already be in snapshot order
/// (obs::slow_record_before); bytes are a pure function of
/// (id, threshold_ns, entries).
void append_slowlog_response(std::string& out, std::uint64_t id,
                             std::uint64_t threshold_ns,
                             std::span<const obs::SlowQueryRecord> entries);

/// Parsed slowlog response (client side of `slowlog`).
struct SlowLogResult {
  std::uint64_t id = 0;
  std::uint64_t threshold_ns = 0;
  std::vector<obs::SlowQueryRecord> entries;

  friend bool operator==(const SlowLogResult&,
                         const SlowLogResult&) = default;
};

/// Parses one slowlog response line. Throws ProtocolError on malformed
/// input or an error response. append_slowlog_response(parse(x)) == x:
/// the round trip is byte-stable (tested).
[[nodiscard]] SlowLogResult parse_slowlog_response(std::string_view line);

/// Shortest-round-trip double formatting (std::to_chars) - the single
/// number format of the protocol, exposed for tests and clients.
void append_json_double(std::string& out, double value);

/// JSON string escaping ("\\", "\"", control characters).
void append_json_string(std::string& out, std::string_view value);

}  // namespace panagree::serve
