// Serving layer tests: wire protocol parsing/serialization, QueryEngine
// semantics (cache-served == freshly enumerated, whatif == full
// recompute, rebase == recompiled state), and the tentpole property -
// server responses byte-identical to direct library calls across request
// interleavings at 1, 2, and 8 worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/obs/build_info.hpp"
#include "panagree/obs/slowlog.hpp"
#include "panagree/obs/trace.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/serve/client.hpp"
#include "panagree/serve/server.hpp"
#include "panagree/serve/wire.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/json.hpp"
#include "panagree/util/rng.hpp"

namespace panagree::serve {
namespace {

using topology::AsId;

// ------------------------------------------------------------------ wire

TEST(Wire, ParsesPathsRequest) {
  const Request request =
      parse_request(R"({"v":1,"id":7,"kind":"paths","source":42})");
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.kind, RequestKind::kPaths);
  EXPECT_EQ(request.source, 42u);
}

TEST(Wire, ParsesWhatIfRequest) {
  const Request request = parse_request(
      R"({"v":1,"id":9,"kind":"whatif",)"
      R"("add":[{"a":1,"b":2,"type":"peering"},)"
      R"({"a":3,"b":4,"type":"transit"}],"remove":[[5,6]]})");
  EXPECT_EQ(request.kind, RequestKind::kWhatIf);
  ASSERT_EQ(request.delta.add.size(), 2u);
  EXPECT_EQ(request.delta.add[0].a, 1u);
  EXPECT_EQ(request.delta.add[0].type, topology::LinkType::kPeering);
  EXPECT_EQ(request.delta.add[1].type,
            topology::LinkType::kProviderCustomer);
  ASSERT_EQ(request.delta.remove.size(), 1u);
  EXPECT_EQ(request.delta.remove[0], (std::pair<AsId, AsId>{5, 6}));
}

TEST(Wire, TolerantOfWhitespaceAndTrailingNewline) {
  const Request request = parse_request(
      "  {\"v\": 1, \"id\": 3, \"kind\": \"diversity\", \"source\": 0}\r\n");
  EXPECT_EQ(request.kind, RequestKind::kDiversity);
}

TEST(Wire, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("{}"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":2,"id":1,"kind":"paths","source":0})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"nope"})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"paths"})"),
               ProtocolError);
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"whatif"})"),
               ProtocolError);
  EXPECT_THROW(
      parse_request(R"({"v":1,"id":1,"kind":"paths","source":-3})"),
      ProtocolError);
}

TEST(Wire, ErrorIdRecoveredFromFailedRequests) {
  std::uint64_t id = 0;
  EXPECT_THROW(parse_request(R"({"v":1,"id":77,"kind":"nope"})", &id),
               ProtocolError);
  EXPECT_EQ(id, 77u);
}

TEST(Wire, ResponsesAreSingleTerminatedLines) {
  std::string out;
  append_error_response(out, 5, "bad \"quote\"\n");
  EXPECT_EQ(out,
            "{\"v\":1,\"id\":5,\"ok\":false,"
            "\"error\":\"bad \\\"quote\\\"\\n\"}\n");
}

/// The paths response bytes, pinned as literals for hand-built sets whose
/// hop runs break in every way the run-length storage must survive.
TEST(Wire, PathsResponseBytesArePinned) {
  const auto response = [](AsId source, const scenario::SourcePathSet& sets) {
    std::string out;
    append_paths_response(out, 7, source, sets);
    return out;
  };
  // A mid that recurs non-adjacently (hop runs 1, 30, 1).
  scenario::SourcePathSet recurring;
  recurring.add_grc({4200, 1, 2});
  recurring.add_grc({4200, 1, 65001});
  recurring.add_grc({4200, 30, 4});
  recurring.add_grc({4200, 1, 9});
  recurring.add_ma({4200, 30, 6});
  EXPECT_EQ(response(4200, recurring),
            "{\"v\":1,\"id\":7,\"ok\":true,\"kind\":\"paths\","
            "\"source\":4200,\"grc\":[[4200,1,2],[4200,1,65001],"
            "[4200,30,4],[4200,1,9]],\"ma\":[[4200,30,6]]}\n");
  // The last GRC mid is the first MA mid.
  scenario::SourcePathSet boundary;
  boundary.add_grc({0, 8, 2});
  boundary.add_grc({0, 11, 7});
  boundary.add_ma({0, 11, 12});
  boundary.add_ma({0, 11, 3});
  boundary.add_ma({0, 5, 1});
  EXPECT_EQ(response(0, boundary),
            "{\"v\":1,\"id\":7,\"ok\":true,\"kind\":\"paths\","
            "\"source\":0,\"grc\":[[0,8,2],[0,11,7]],"
            "\"ma\":[[0,11,12],[0,11,3],[0,5,1]]}\n");
  // An empty GRC set.
  scenario::SourcePathSet ma_only;
  ma_only.add_ma({17, 2, 3});
  ma_only.add_ma({17, 4, 1});
  EXPECT_EQ(response(17, ma_only),
            "{\"v\":1,\"id\":7,\"ok\":true,\"kind\":\"paths\","
            "\"source\":17,\"grc\":[],\"ma\":[[17,2,3],[17,4,1]]}\n");
  // An empty set.
  EXPECT_EQ(response(99, scenario::SourcePathSet{}),
            "{\"v\":1,\"id\":7,\"ok\":true,\"kind\":\"paths\","
            "\"source\":99,\"grc\":[],\"ma\":[]}\n");
}

TEST(Wire, ParsesStatsRequest) {
  const Request request =
      parse_request(R"({"v":1,"id":11,"kind":"stats"})");
  EXPECT_EQ(request.id, 11u);
  EXPECT_EQ(request.kind, RequestKind::kStats);
}

TEST(Wire, StatsResponseIsByteStableAndRoundTrips) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"a.counter", 3});
  snap.counters.push_back({"b.counter", 0});
  snap.gauges.push_back({"a.gauge", -12});
  obs::HistogramSample hist;
  hist.name = "a.hist";
  hist.count = 4;
  hist.sum = 90;
  hist.buckets = {{1, 1}, {5, 3}};
  snap.histograms.push_back(hist);

  std::string out;
  append_stats_response(out, 42, "v1.2-3-gabc", 7, snap);
  // The exposition is a byte-stable contract: fixed field order, names
  // sorted, integers via to_chars - scrapes diff cleanly across runs.
  EXPECT_EQ(out,
            "{\"v\":1,\"id\":42,\"ok\":true,\"kind\":\"stats\","
            "\"build\":\"v1.2-3-gabc\",\"epoch\":7,"
            "\"counters\":{\"a.counter\":3,\"b.counter\":0},"
            "\"gauges\":{\"a.gauge\":-12},"
            "\"histograms\":{\"a.hist\":{\"count\":4,\"sum\":90,"
            "\"buckets\":[[1,1],[5,3]]}}}\n");

  const StatsResult parsed = parse_stats_response(out);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.build, "v1.2-3-gabc");
  EXPECT_EQ(parsed.epoch, 7u);
  EXPECT_EQ(parsed.metrics, snap);

  // Round-trip byte-stability: re-serializing the parsed snapshot
  // reproduces the original line exactly.
  std::string again;
  append_stats_response(again, 42, parsed.build, parsed.epoch,
                        parsed.metrics);
  EXPECT_EQ(again, out);
}

TEST(Wire, ParsesSlowlogRequest) {
  const Request request =
      parse_request(R"({"v":1,"id":13,"kind":"slowlog"})");
  EXPECT_EQ(request.id, 13u);
  EXPECT_EQ(request.kind, RequestKind::kSlowLog);
}

TEST(Wire, SlowKindNamesRoundTrip) {
  for (const std::uint64_t code : {0u, 1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(slow_kind_code(slow_kind_name(code)), code);
  }
  EXPECT_EQ(slow_kind_name(static_cast<std::uint64_t>(RequestKind::kPaths)),
            "paths");
  EXPECT_EQ(slow_kind_name(kSlowKindError), "error");
  // Out-of-range codes clamp instead of reading past the name table.
  EXPECT_EQ(slow_kind_name(kSlowKindUnknown), "unknown");
  EXPECT_EQ(slow_kind_name(999), "unknown");
  EXPECT_THROW((void)slow_kind_code("nope"), ProtocolError);
}

TEST(Wire, SlowlogResponseIsByteStableAndRoundTrips) {
  obs::SlowQueryRecord first;
  first.wire_id = 9;
  first.kind = static_cast<std::uint64_t>(RequestKind::kWhatIf);
  first.source = 0;
  first.delta_links = 2;
  first.wall_ns = 500;
  first.queue_ns = 50;
  first.parse_ns = 100;
  first.engine_ns = 200;
  first.serialize_ns = 100;
  first.send_ns = 50;
  obs::SlowQueryRecord second;
  second.wire_id = 4;
  second.kind = static_cast<std::uint64_t>(RequestKind::kPaths);
  second.source = 17;
  second.wall_ns = 300;
  second.queue_ns = 0;
  second.parse_ns = 60;
  second.engine_ns = 180;
  second.serialize_ns = 40;
  second.send_ns = 20;
  const std::vector<obs::SlowQueryRecord> entries{first, second};

  std::string out;
  append_slowlog_response(out, 33, 250, entries);
  // Byte-stable contract: fixed field order, integers via to_chars.
  EXPECT_EQ(
      out,
      "{\"v\":1,\"id\":33,\"ok\":true,\"kind\":\"slowlog\","
      "\"threshold_ns\":250,\"entries\":["
      "{\"wire_id\":9,\"kind\":\"whatif\",\"source\":0,\"delta_links\":2,"
      "\"wall_ns\":500,\"queue_ns\":50,\"parse_ns\":100,\"engine_ns\":200,"
      "\"serialize_ns\":100,\"send_ns\":50},"
      "{\"wire_id\":4,\"kind\":\"paths\",\"source\":17,\"delta_links\":0,"
      "\"wall_ns\":300,\"queue_ns\":0,\"parse_ns\":60,\"engine_ns\":180,"
      "\"serialize_ns\":40,\"send_ns\":20}]}\n");

  const SlowLogResult parsed = parse_slowlog_response(out);
  EXPECT_EQ(parsed.id, 33u);
  EXPECT_EQ(parsed.threshold_ns, 250u);
  EXPECT_EQ(parsed.entries, entries);

  // Round-trip byte-stability: re-serializing the parsed entries
  // reproduces the original line exactly.
  std::string again;
  append_slowlog_response(again, parsed.id, parsed.threshold_ns,
                          parsed.entries);
  EXPECT_EQ(again, out);
}

TEST(Wire, SlowlogResponseParserRejectsGarbage) {
  EXPECT_THROW(parse_slowlog_response("not json"), ProtocolError);
  EXPECT_THROW(
      parse_slowlog_response(
          R"({"v":1,"id":1,"ok":true,"kind":"stats","entries":[]})"),
      ProtocolError);
  EXPECT_THROW(parse_slowlog_response(
                   R"({"v":1,"id":1,"ok":false,"error":"boom"})"),
               ProtocolError);
}

TEST(Wire, StatsResponseParserRejectsGarbage) {
  EXPECT_THROW(parse_stats_response("not json"), ProtocolError);
  EXPECT_THROW(
      parse_stats_response(
          R"({"v":1,"id":1,"ok":true,"kind":"paths","epoch":0})"),
      ProtocolError);
  EXPECT_THROW(parse_stats_response(
                   R"({"v":1,"id":1,"ok":false,"error":"boom"})"),
               ProtocolError);
  // Gauges are signed 64-bit. INT64_MAX rounds up to 2^63 as a double,
  // so 2^63 must be rejected rather than cast out of range, while -2^63
  // is INT64_MIN exactly.
  const std::string head =
      R"({"v":1,"id":1,"ok":true,"kind":"stats","build":"b","epoch":0,)"
      R"("counters":{},"gauges":{"g":)";
  const std::string tail = R"(},"histograms":{}})";
  EXPECT_THROW(parse_stats_response(head + "9223372036854775808.0" + tail),
               ProtocolError);
  const StatsResult lowest =
      parse_stats_response(head + "-9223372036854775808.0" + tail);
  ASSERT_EQ(lowest.metrics.gauges.size(), 1u);
  EXPECT_EQ(lowest.metrics.gauges[0].value,
            std::numeric_limits<std::int64_t>::min());
}

// ----------------------------------------------------------- query engine

/// Shared fixture: a small synthetic Internet, its economy, and a primed
/// engine over a 40-source sample. Expensive, so built once.
class ServeFixture {
 public:
  ServeFixture() {
    topology::GeneratorParams params;
    params.num_ases = 250;
    params.tier1_count = 5;
    params.seed = 20260801;
    topo_ = topology::generate_internet(params);
    compiled_.emplace(topo_.graph);
    economy_.emplace(econ::make_default_economy(topo_.graph));
    sources_ = diversity::sample_sources(topo_.graph, 40, 7);
    aggregator_.emplace(*compiled_, &topo_.world, &*economy_);
  }

  [[nodiscard]] std::unique_ptr<QueryEngine> make_engine(
      EngineConfig config = {}) const {
    auto engine = std::make_unique<QueryEngine>(
        *compiled_, &topo_.world, &*economy_, sources_, config);
    engine->prime();
    return engine;
  }

  [[nodiscard]] std::vector<scenario::Delta> candidates(
      std::size_t count) const {
    return scenario::candidate_peering_deltas(*compiled_, count, 4242);
  }

  topology::GeneratedTopology topo_;
  std::optional<topology::CompiledTopology> compiled_;
  std::optional<econ::Economy> economy_;
  std::vector<AsId> sources_;
  std::optional<scenario::MetricsAggregator> aggregator_;
};

const ServeFixture& fixture() {
  static const ServeFixture fixture;
  return fixture;
}

scenario::SourcePathSet direct_enumeration(const ServeFixture& f, AsId src) {
  const scenario::Overlay base(*f.compiled_);
  return scenario::enumerate_length3(base, src);
}

TEST(QueryEngine, CachedAndColdPathsMatchDirectEnumeration) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  // One sampled (cache-served) and one unsampled (cold) source.
  std::vector<AsId> probes{f.sources_.front()};
  for (AsId as = 0; as < f.topo_.graph.num_ases(); ++as) {
    if (std::find(f.sources_.begin(), f.sources_.end(), as) ==
        f.sources_.end()) {
      probes.push_back(as);
      break;
    }
  }
  for (const AsId src : probes) {
    const scenario::SourcePathSet expected = direct_enumeration(f, src);
    bool visited = false;
    std::string served;
    engine->paths(src, [&](const scenario::SourcePathSet& sets) {
      visited = true;
      EXPECT_EQ(sets, expected);
      append_paths_response(served, 1, src, sets);
    });
    EXPECT_TRUE(visited);
    // perfbench's triple-copying binding serves the same paths and bytes.
    std::string copied;
    engine->paths(src, [&](std::span<const diversity::Length3Path> grc,
                           std::span<const diversity::Length3Path> ma) {
      EXPECT_TRUE(std::ranges::equal(grc, expected.grc()));
      EXPECT_TRUE(std::ranges::equal(ma, expected.ma()));
      append_paths_response(copied, 1, src, grc, ma);
    });
    EXPECT_EQ(copied, served);
  }
  EXPECT_THROW(
      engine->paths(static_cast<AsId>(f.topo_.graph.num_ases()),
                    [](const scenario::SourcePathSet&) {}),
      util::PreconditionError);
}

TEST(QueryEngine, DiversityMatchesAggregatorContribution) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const AsId src = f.sources_[3];
  const scenario::Overlay base(*f.compiled_);
  const scenario::SourceContribution expected =
      f.aggregator_->contribution(base, direct_enumeration(f, src));
  const DiversityResult result = engine->diversity(src);
  EXPECT_EQ(result.grc_paths, expected.grc_paths);
  EXPECT_EQ(result.ma_paths, expected.ma_paths);
  EXPECT_EQ(result.grc_pairs, expected.grc_pairs);
  EXPECT_EQ(result.ma_extra_pairs, expected.ma_extra_pairs);
  EXPECT_DOUBLE_EQ(
      result.mean_best_geodistance_km,
      expected.km_pairs > 0
          ? expected.km_sum / static_cast<double>(expected.km_pairs)
          : 0.0);
  EXPECT_DOUBLE_EQ(result.transit_fees, expected.transit_fees);
}

/// The whatif score recomputed the slow way: a fresh runner primed from
/// scratch, full evaluate over the delta, aggregate, subtract.
WhatIfResult full_recompute_whatif(const ServeFixture& f,
                                   const scenario::Delta& delta) {
  scenario::SweepConfig config;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(*f.compiled_,
                                                        f.sources_, config);
  const auto enumerate = [](const scenario::Overlay& overlay, AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  runner.prime(enumerate);
  const scenario::Overlay base(*f.compiled_);
  const scenario::ScenarioMetrics baseline =
      f.aggregator_->aggregate(base, f.sources_, runner.baseline());
  scenario::Overlay overlay(*f.compiled_);
  overlay.apply(delta);
  scenario::SweepStats stats;
  const std::vector<scenario::SourcePathSet> results =
      runner.evaluate(delta, enumerate, &stats);
  const scenario::ScenarioMetrics metrics =
      f.aggregator_->aggregate(overlay, f.sources_, results);
  const scenario::MetricsDelta marginal =
      scenario::subtract(metrics, baseline);
  WhatIfResult expected;
  expected.paths_delta = marginal.paths;
  expected.pairs_delta = marginal.pairs;
  expected.mean_km_delta = marginal.mean_best_geodistance_km;
  expected.fees_delta = marginal.transit_fees;
  expected.utility = scenario::operator_utility(marginal);
  expected.recomputed_sources = stats.recomputed_sources;
  expected.cached_sources = stats.cached_sources;
  expected.ball_size = stats.ball_size;
  return expected;
}

TEST(QueryEngine, WhatIfMatchesFullRecompute) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  for (const scenario::Delta& delta : f.candidates(8)) {
    const WhatIfResult expected = full_recompute_whatif(f, delta);
    EXPECT_EQ(engine->whatif(delta), expected);
    // Memoized repeat must serve identical bytes.
    EXPECT_EQ(engine->whatif(delta), expected);
    engine->flush_whatif_memo();
    EXPECT_EQ(engine->whatif(delta), expected);
  }
}

TEST(QueryEngine, WhatIfRejectsInvalidDeltas) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  scenario::Delta bogus;
  bogus.remove.emplace_back(
      static_cast<AsId>(f.topo_.graph.num_ases() + 1),
      static_cast<AsId>(f.topo_.graph.num_ases() + 2));
  EXPECT_THROW((void)engine->whatif(bogus), util::PreconditionError);
  // And again through the memo (the stored exception is shared).
  EXPECT_THROW((void)engine->whatif(bogus), util::PreconditionError);
}

TEST(QueryEngine, RebaseFoldsStepAndBumpsEpoch) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const std::vector<scenario::Delta> candidates = f.candidates(3);
  ASSERT_GE(candidates.size(), 2u);
  const scenario::Delta step = candidates[0];
  const scenario::Delta probe = candidates[1];

  // Expected post-rebase state: a fresh runner rebased the library way.
  scenario::SweepConfig config;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(*f.compiled_,
                                                        f.sources_, config);
  const auto enumerate = [](const scenario::Overlay& overlay, AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  runner.prime(enumerate);
  runner.rebase(step, enumerate);

  const std::uint64_t epoch_before = engine->epoch();
  engine->rebase(step);
  EXPECT_EQ(engine->epoch(), epoch_before + 1);

  // Cached paths now reflect the rebased state for every source.
  for (std::size_t i = 0; i < f.sources_.size(); ++i) {
    engine->paths(f.sources_[i], [&](const scenario::SourcePathSet& sets) {
      EXPECT_TRUE(sets == runner.baseline()[i]) << "source " << i;
    });
  }

  // And whatif scores measure against the rebased state.
  scenario::Overlay state_overlay(*f.compiled_);
  state_overlay.apply(runner.state());
  const scenario::ScenarioMetrics state_metrics = f.aggregator_->aggregate(
      state_overlay, f.sources_, runner.baseline());
  scenario::SweepStats stats;
  scenario::Overlay probe_overlay(*f.compiled_);
  probe_overlay.apply(scenario::compose(runner.state(), probe));
  const std::vector<scenario::SourcePathSet> results =
      runner.evaluate(probe, enumerate, &stats);
  const scenario::MetricsDelta marginal = scenario::subtract(
      f.aggregator_->aggregate(probe_overlay, f.sources_, results),
      state_metrics);
  const WhatIfResult served = engine->whatif(probe);
  EXPECT_DOUBLE_EQ(served.utility, scenario::operator_utility(marginal));
  EXPECT_EQ(served.recomputed_sources, stats.recomputed_sources);
}

[[nodiscard]] bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every `paths` response of the fixture (each sampled source and one
/// cold source), folded into one FNV-1a-64 hash: the cache and the cold
/// path must keep serving these exact bytes.
TEST(QueryEngine, PathsResponsesArePinned) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  std::vector<AsId> probes = f.sources_;
  AsId cold = 0;
  while (std::find(f.sources_.begin(), f.sources_.end(), cold) !=
         f.sources_.end()) {
    ++cold;
  }
  probes.push_back(cold);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::size_t bytes = 0;
  for (const AsId src : probes) {
    std::string out;
    engine->handle_line(R"({"v":1,"id":)" + std::to_string(src) +
                            R"(,"kind":"paths","source":)" +
                            std::to_string(src) + "}",
                        out);
    for (const char c : out) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    bytes += out.size();
  }
  EXPECT_EQ(bytes, 273741u);
  EXPECT_EQ(hash, 0x4cb6e23e6038498full);
}

/// engine.path_cache_bytes reports the heap the cached sets hold, by
/// capacity - under the 12 bytes a path of {src, mid, dst} triples.
TEST(QueryEngine, PathCacheGaugeCountsCachedSetBytes) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "gauges compile out under PANAGREE_OBS_OFF";
  }
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const std::int64_t gauge =
      obs::Registry::global().gauge("engine.path_cache_bytes").value();
  std::size_t bytes = 0;
  std::size_t paths = 0;
  for (const AsId src : f.sources_) {
    engine->paths(src, [&](const scenario::SourcePathSet& sets) {
      bytes += sets.heap_bytes();
      paths += sets.grc().size() + sets.ma().size();
    });
  }
  EXPECT_EQ(gauge, static_cast<std::int64_t>(bytes));
  EXPECT_GT(paths, 0u);
  EXPECT_LT(bytes, 12 * paths);
}

/// The fixture's served numbers, pinned as hex-float literals: any
/// change to the contribution kernel or the refold must keep producing
/// exactly these doubles.
TEST(QueryEngine, StateMetricsAndWhatIfUtilitiesArePinned) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const scenario::ScenarioMetrics metrics = engine->state_metrics();
  EXPECT_EQ(metrics.grc_paths, 6413u);
  EXPECT_EQ(metrics.ma_paths, 16554u);
  EXPECT_EQ(metrics.grc_pairs, 5188u);
  EXPECT_EQ(metrics.ma_extra_pairs, 3115u);
  EXPECT_TRUE(same_bytes(metrics.mean_best_geodistance_km,
                         0x1.239e32275ec02p+13))
      << metrics.mean_best_geodistance_km;
  EXPECT_TRUE(same_bytes(metrics.transit_fees, 0x1.0010000000003p+12))
      << metrics.transit_fees;

  const double utilities[] = {
      -0x1.258998206f8f6p+1, 0x0p+0,  0x1.b4c4d8370f5c3p-6,
      0x1.6677dd2b55c29p+1,  0x0p+0,  0x0p+0,
      0x1.2347cca3f64e1p+2,  -0x1.644382b0fdc29p+0,
      0x1.008be7d2151c3p+1,  0x0p+0,
  };
  const std::vector<scenario::Delta> deltas = f.candidates(10);
  ASSERT_EQ(deltas.size(), std::size(utilities));
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const double utility = engine->whatif(deltas[i]).utility;
    EXPECT_TRUE(same_bytes(utility, utilities[i]))
        << "candidate " << i << ": " << utility;
  }
}

/// Everything an engine serves that the contribution refold feeds, as
/// one byte string: state metrics and every sampled source's diversity
/// (doubles in hex-float form), then the handle_line responses of
/// `whatifs`.
std::string refold_transcript(const ServeFixture& f, QueryEngine& engine,
                              const std::vector<std::string>& whatifs) {
  std::string out;
  const auto put = [&](double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %a", value);
    out += buf;
  };
  const scenario::ScenarioMetrics metrics = engine.state_metrics();
  out += "state " + std::to_string(metrics.grc_paths) + ' ' +
         std::to_string(metrics.ma_paths) + ' ' +
         std::to_string(metrics.grc_pairs) + ' ' +
         std::to_string(metrics.ma_extra_pairs);
  put(metrics.mean_best_geodistance_km);
  put(metrics.transit_fees);
  out += '\n';
  for (const AsId src : f.sources_) {
    const DiversityResult d = engine.diversity(src);
    out += "diversity " + std::to_string(src) + ' ' +
           std::to_string(d.grc_paths) + ' ' + std::to_string(d.ma_paths) +
           ' ' + std::to_string(d.grc_pairs) + ' ' +
           std::to_string(d.ma_extra_pairs);
    put(d.mean_best_geodistance_km);
    put(d.transit_fees);
    out += '\n';
  }
  for (const std::string& line : whatifs) {
    engine.handle_line(line, out);
  }
  return out;
}

/// The parallel refold (prime and rebase) serves the same bytes at any
/// engine thread count. The fixture's 40 sources exceed the driver's
/// serial threshold, so threads > 1 really fan out.
TEST(QueryEngine, RefoldIsByteIdenticalAcrossThreadCounts) {
  const ServeFixture& f = fixture();
  ASSERT_GT(f.sources_.size(), paths::kMinParallelSources);
  const std::vector<scenario::Delta> deltas = f.candidates(6);
  ASSERT_GE(deltas.size(), 4u);
  std::vector<std::string> whatifs;
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    const scenario::LinkChange& link = deltas[i].add.front();
    whatifs.push_back(R"({"v":1,"id":)" + std::to_string(i) +
                      R"(,"kind":"whatif","add":[{"a":)" +
                      std::to_string(link.a) + R"(,"b":)" +
                      std::to_string(link.b) + R"(,"type":"peering"}]})");
  }

  std::vector<std::string> primed;
  std::vector<std::string> rebased;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EngineConfig config;
    config.threads = threads;
    const auto engine = f.make_engine(config);
    primed.push_back(refold_transcript(f, *engine, whatifs));
    engine->rebase(deltas[0]);
    rebased.push_back(refold_transcript(f, *engine, whatifs));
  }
  for (std::size_t i = 1; i < primed.size(); ++i) {
    EXPECT_EQ(primed[i], primed[0]) << "thread config " << i;
    EXPECT_EQ(rebased[i], rebased[0]) << "thread config " << i;
  }
  // The rebase moved the state, so the comparison covers two refolds.
  EXPECT_NE(rebased[0], primed[0]);
}

TEST(QueryEngine, StatsRequestServesLiveRegistrySnapshot) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();

  // Stats responses carry process-wide counters, so they are excluded
  // from byte-identity sessions - but one response must parse, describe
  // this engine's epoch/build, and (self-counting) include the stats
  // request that produced it.
  std::string out;
  engine->handle_line(R"({"v":1,"id":21,"kind":"stats"})", out);
  const StatsResult first = parse_stats_response(out);
  EXPECT_EQ(first.id, 21u);
  EXPECT_EQ(first.epoch, engine->epoch());
  EXPECT_EQ(first.build, obs::build_info().git_describe);
  std::uint64_t stats_count = 0;
  for (const obs::CounterSample& counter : first.metrics.counters) {
    if (counter.name == "serve.requests.stats") {
      stats_count = counter.value;
    }
  }
  EXPECT_GE(stats_count, 1u);

  // A second scrape sees a strictly larger stats-request counter.
  out.clear();
  engine->handle_line(R"({"v":1,"id":22,"kind":"stats"})", out);
  const StatsResult second = parse_stats_response(out);
  std::uint64_t stats_count_again = 0;
  for (const obs::CounterSample& counter : second.metrics.counters) {
    if (counter.name == "serve.requests.stats") {
      stats_count_again = counter.value;
    }
  }
  EXPECT_EQ(stats_count_again, stats_count + 1);
}

// ------------------------------------------------- server byte-identity

/// A deterministic mixed request script: all three kinds, cold and
/// cached sources, plus malformed lines the server must answer as
/// errors without dropping the connection.
std::vector<std::string> request_script(const ServeFixture& f,
                                        std::size_t count) {
  const std::vector<scenario::Delta> deltas = f.candidates(6);
  util::Rng rng(99);
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string id = std::to_string(i + 1);
    switch (rng.uniform_index(5)) {
      case 0:
        lines.push_back(
            R"({"v":1,"id":)" + id + R"(,"kind":"paths","source":)" +
            std::to_string(
                f.sources_[rng.uniform_index(f.sources_.size())]) +
            "}");
        break;
      case 1:
        lines.push_back(
            R"({"v":1,"id":)" + id + R"(,"kind":"diversity","source":)" +
            std::to_string(rng.uniform_index(f.topo_.graph.num_ases())) +
            "}");
        break;
      case 2: {
        const scenario::LinkChange& link =
            deltas[rng.uniform_index(deltas.size())].add.front();
        lines.push_back(R"({"v":1,"id":)" + id +
                        R"(,"kind":"whatif","add":[{"a":)" +
                        std::to_string(link.a) + R"(,"b":)" +
                        std::to_string(link.b) +
                        R"(,"type":"peering"}]})");
        break;
      }
      case 3:
        // Out-of-range source: a well-formed request the engine rejects.
        lines.push_back(R"({"v":1,"id":)" + id +
                        R"(,"kind":"paths","source":999999})");
        break;
      default:
        lines.push_back(R"({"v":1,"id":)" + id + R"(,"kind":"garbage"})");
    }
  }
  return lines;
}

/// The tentpole acceptance property: responses collected over the wire
/// are byte-identical to direct QueryEngine::handle_line calls, for
/// every worker-thread count and whatever interleaving concurrent client
/// connections produce.
TEST(Server, ResponsesByteIdenticalToDirectCallsAcrossThreadCounts) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const std::vector<std::string> script = request_script(f, 60);

  std::vector<std::string> expected;
  expected.reserve(script.size());
  for (const std::string& line : script) {
    std::string out;
    engine->handle_line(line, out);
    expected.push_back(out);
  }
  std::vector<std::string> expected_sorted = expected;
  std::sort(expected_sorted.begin(), expected_sorted.end());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ServerConfig config;
    config.worker_threads = workers;
    Server server(*engine, config);
    server.start();

    // Three concurrent closed-loop clients interleaving disjoint slices.
    constexpr std::size_t kClients = 3;
    std::vector<std::vector<std::string>> collected(kClients);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::ClientConnection client(server.port());
        for (std::size_t i = c; i < script.size(); i += kClients) {
          client.send_line(script[i]);
          collected[c].push_back(client.read_line());
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    // Closed-loop responses match their requests positionally.
    for (std::size_t c = 0; c < kClients; ++c) {
      std::size_t slot = 0;
      for (std::size_t i = c; i < script.size(); i += kClients) {
        EXPECT_EQ(collected[c][slot], expected[i])
            << "workers=" << workers << " request=" << script[i];
        ++slot;
      }
    }

    // One pipelined client: fire everything, then read; responses may
    // reorder across workers, so compare as sorted multisets.
    {
      serve::ClientConnection client(server.port());
      for (const std::string& line : script) {
        client.send_line(line);
      }
      std::vector<std::string> responses;
      for (std::size_t i = 0; i < script.size(); ++i) {
        responses.push_back(client.read_line());
      }
      std::sort(responses.begin(), responses.end());
      EXPECT_EQ(responses, expected_sorted) << "workers=" << workers;
    }

    server.stop();
    EXPECT_FALSE(server.running());
  }
}

TEST(Server, StopDrainsOutstandingRequests) {
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  Server server(*engine, {});
  server.start();

  serve::ClientConnection client(server.port());
  constexpr std::size_t kOutstanding = 16;
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    client.send_line(R"({"v":1,"id":)" + std::to_string(i + 1) +
                     R"(,"kind":"paths","source":)" +
                     std::to_string(f.sources_[i % f.sources_.size()]) +
                     "}");
  }
  // Wait until every request has reached the server (loopback delivery
  // is asynchronous), then stop: the drain must flush all responses.
  for (int spins = 0; spins < 5000; ++spins) {
    if (server.handled_requests() >= kOutstanding) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  std::size_t answered = 0;
  for (std::size_t i = 0; i < kOutstanding; ++i) {
    const std::string response = client.read_line();
    if (response.empty()) {
      break;
    }
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
    ++answered;
  }
  EXPECT_EQ(answered, kOutstanding);
}

// ------------------------------------------------ stage clock & slowlog

TEST(QueryEngine, HandleLineFillsStageClock) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "stage clock compiles out under PANAGREE_OBS_OFF";
  }
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  const AsId cached = f.sources_.front();
  AsId cold = 0;
  while (std::find(f.sources_.begin(), f.sources_.end(), cold) !=
         f.sources_.end()) {
    ++cold;
  }

  const auto run = [&](const std::string& line) {
    RequestStages stages;
    stages.enqueue_ns = stage_now_ns();
    std::string out;
    engine->handle_line(line, out, &stages);
    if (stages.slow_kind == kSlowKindError) {
      ADD_FAILURE() << "request failed: " << line << " -> " << out;
    }
    // The stage-sum identity: attributed wall time is exactly the sum of
    // the five stages (send is the server's to fill; 0 here).
    EXPECT_EQ(stages.wall_ns(), stages.queue_ns() + stages.parse_ns +
                                    stages.engine_ns + stages.serialize_ns +
                                    stages.send_ns)
        << line;
    EXPECT_GT(stages.parse_ns, 0u) << line;
    EXPECT_EQ(stages.send_ns, 0u) << line;
    return stages;
  };

  const RequestStages cached_stages =
      run(R"({"v":1,"id":1,"kind":"paths","source":)" +
          std::to_string(cached) + "}");
  EXPECT_EQ(cached_stages.wire_id, 1u);
  EXPECT_EQ(cached_stages.slow_kind,
            static_cast<std::uint64_t>(RequestKind::kPaths));
  EXPECT_EQ(cached_stages.work, EngineWork::kCache);
  EXPECT_GT(cached_stages.serialize_ns, 0u);

  const RequestStages cold_stages =
      run(R"({"v":1,"id":2,"kind":"paths","source":)" +
          std::to_string(cold) + "}");
  EXPECT_EQ(cold_stages.work, EngineWork::kSweep);
  EXPECT_GT(cold_stages.engine_ns, 0u);

  const scenario::LinkChange link = f.candidates(1).front().add.front();
  const RequestStages whatif_stages =
      run(R"({"v":1,"id":3,"kind":"whatif","add":[{"a":)" +
          std::to_string(link.a) + R"(,"b":)" + std::to_string(link.b) +
          R"(,"type":"peering"}],"remove":[]})");
  EXPECT_EQ(whatif_stages.work, EngineWork::kSweep);
  EXPECT_EQ(whatif_stages.delta_links, 1u);
  EXPECT_GT(whatif_stages.engine_ns, 0u);

  const RequestStages stats_stages =
      run(R"({"v":1,"id":4,"kind":"stats"})");
  EXPECT_EQ(stats_stages.slow_kind,
            static_cast<std::uint64_t>(RequestKind::kStats));
  EXPECT_EQ(stats_stages.work, EngineWork::kNone);
  EXPECT_GT(stats_stages.serialize_ns, 0u);

  RequestStages error_stages;
  error_stages.enqueue_ns = stage_now_ns();
  {
    std::string out;
    engine->handle_line(R"({"v":1,"id":5,"kind":"garbage"})", out,
                        &error_stages);
  }
  EXPECT_EQ(error_stages.wall_ns(),
            error_stages.queue_ns() + error_stages.parse_ns +
                error_stages.engine_ns + error_stages.serialize_ns +
                error_stages.send_ns);
  EXPECT_GT(error_stages.parse_ns, 0u);
  EXPECT_EQ(error_stages.wire_id, 5u);
  EXPECT_EQ(error_stages.slow_kind, kSlowKindError);
  EXPECT_EQ(error_stages.work, EngineWork::kNone);
  EXPECT_EQ(error_stages.engine_ns, 0u);
}

TEST(Server, SlowlogCapturesEveryRequestWithStageBreakdown) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "slowlog compiles out under PANAGREE_OBS_OFF";
  }
  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  obs::SlowQueryLog& log = obs::SlowQueryLog::global();
  log.set_threshold_ns(0);  // capture everything
  log.clear();

  // A scripted session over the wire; stop() drains and joins the
  // workers, so every request's observation (recorded after its bytes
  // hit the socket) is complete before the ring is inspected.
  {
    Server server(*engine, {});
    server.start();
    serve::ClientConnection client(server.port());
    client.send_line(R"({"v":1,"id":1,"kind":"paths","source":)" +
                     std::to_string(f.sources_.front()) + "}");
    (void)client.read_line();
    client.send_line(R"({"v":1,"id":2,"kind":"diversity","source":)" +
                     std::to_string(f.sources_.back()) + "}");
    (void)client.read_line();
    client.send_line(R"({"v":1,"id":3,"kind":"garbage"})");
    (void)client.read_line();
    server.stop();
  }

  const std::vector<obs::SlowQueryRecord> snap = log.snapshot();
  std::set<std::uint64_t> captured;
  for (const obs::SlowQueryRecord& rec : snap) {
    captured.insert(rec.wire_id);
    // The serve-side invariant the wire comment promises: stage ns sum
    // exactly to the recorded wall time.
    EXPECT_EQ(rec.wall_ns, rec.queue_ns + rec.parse_ns + rec.engine_ns +
                               rec.serialize_ns + rec.send_ns);
    EXPECT_GT(rec.wall_ns, 0u);
    EXPECT_GT(rec.send_ns, 0u);  // server-side send stage populated
  }
  EXPECT_TRUE(captured.contains(1));
  EXPECT_TRUE(captured.contains(2));
  EXPECT_TRUE(captured.contains(3));

  // The ring is served over the wire by the slowlog kind - and since
  // recording happens after the response bytes are sent, a slowlog
  // response never lists its own request.
  {
    Server server(*engine, {});
    server.start();
    serve::ClientConnection client(server.port());
    client.send_line(R"({"v":1,"id":777,"kind":"slowlog"})");
    const SlowLogResult served = parse_slowlog_response(client.read_line());
    EXPECT_EQ(served.id, 777u);
    EXPECT_EQ(served.threshold_ns, 0u);
    std::set<std::uint64_t> wire_ids;
    for (const obs::SlowQueryRecord& rec : served.entries) {
      wire_ids.insert(rec.wire_id);
    }
    EXPECT_TRUE(wire_ids.contains(1));
    EXPECT_FALSE(wire_ids.contains(777));
    // Entries arrive slowest-first (the deterministic snapshot order).
    for (std::size_t i = 1; i < served.entries.size(); ++i) {
      EXPECT_FALSE(slow_record_before(served.entries[i],
                                      served.entries[i - 1]));
    }
    server.stop();
  }
  log.set_threshold_ns(obs::kDefaultSlowThresholdNs);
  log.clear();
}

TEST(Server, TraceSpansFormARequestRootedTree) {
  if (!obs::enabled()) {
    GTEST_SKIP() << "tracing compiles out under PANAGREE_OBS_OFF";
  }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "panagree_serve_span_tree.json";
  std::filesystem::remove(path);
  obs::trace_init(path.native());
  ASSERT_TRUE(obs::trace_enabled());

  const ServeFixture& f = fixture();
  const auto engine = f.make_engine();
  {
    Server server(*engine, {});
    server.start();
    serve::ClientConnection client(server.port());
    for (std::uint64_t id = 1; id <= 3; ++id) {
      client.send_line(R"({"v":1,"id":)" + std::to_string(id) +
                       R"(,"kind":"paths","source":)" +
                       std::to_string(f.sources_[id]) + "}");
      (void)client.read_line();
    }
    server.stop();  // joins workers: every span tree is recorded
  }
  obs::trace_flush();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const util::json::Value doc = util::json::parse(buffer.str());
  const util::json::Object& root =
      *std::get<std::unique_ptr<util::json::Object>>(doc.data);
  const util::json::Array& events =
      *std::get<std::unique_ptr<util::json::Array>>(
          root.at("traceEvents").data);

  const auto num = [](const util::json::Value& v) {
    if (const auto* u = std::get_if<std::uint64_t>(&v.data)) {
      return static_cast<double>(*u);
    }
    return std::get<double>(v.data);
  };
  std::set<std::uint64_t> root_ids;
  std::set<std::uint64_t> wire_ids;
  std::vector<std::uint64_t> stage_parents;
  for (const util::json::Value& event : events) {
    const util::json::Object& fields =
        *std::get<std::unique_ptr<util::json::Object>>(event.data);
    const std::string& name = std::get<std::string>(fields.at("name").data);
    const util::json::Object& args =
        *std::get<std::unique_ptr<util::json::Object>>(
            fields.at("args").data);
    if (name == "serve.request") {
      root_ids.insert(static_cast<std::uint64_t>(num(args.at("id"))));
      EXPECT_EQ(num(args.at("parent")), 0.0);  // requests are roots
      ASSERT_NE(args.find("wire_id"), args.end());
      wire_ids.insert(static_cast<std::uint64_t>(num(args.at("wire_id"))));
    } else if (name.rfind("serve.stage.", 0) == 0) {
      stage_parents.push_back(
          static_cast<std::uint64_t>(num(args.at("parent"))));
    }
  }
  EXPECT_EQ(root_ids.size(), 3u);
  EXPECT_EQ(wire_ids, (std::set<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(stage_parents.empty());
  // The tree property: every stage span hangs off one of the request
  // roots - no orphans, no cross-request parents.
  for (const std::uint64_t parent : stage_parents) {
    EXPECT_TRUE(root_ids.contains(parent)) << parent;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace panagree::serve
