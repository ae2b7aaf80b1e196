// Serving tests of the `rebase` wire kind and of thread-count identity:
// a what-if spreads its dirty sources over the engine's workers, so a
// scripted session (rebase included) must answer the same bytes at 1, 2
// and 8 engine threads, directly and through a Server at 1, 2 and 8
// workers; a reader racing a rebase must see the old bytes or the new
// bytes, never a third pattern; and a rebase splices only its step's
// dirty sources, so after every step of a randomized deployment program
// the engine must serve exactly what a full refold of the composed state
// computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/client.hpp"
#include "panagree/serve/server.hpp"
#include "panagree/serve/wire.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/rng.hpp"

namespace panagree::serve {
namespace {

using topology::AsId;

// ------------------------------------------------------------------ wire

TEST(Wire, ParsesRebaseRequest) {
  const Request request = parse_request(
      R"({"v":1,"id":8,"kind":"rebase","add":[{"a":1,"b":2,"type":"peering"}]})");
  EXPECT_EQ(request.id, 8u);
  EXPECT_EQ(request.kind, RequestKind::kRebase);
  ASSERT_EQ(request.delta.add.size(), 1u);
  EXPECT_EQ(request.delta.add[0].a, 1u);
  EXPECT_EQ(request.delta.add[0].b, 2u);
}

TEST(Wire, RejectsEmptyRebase) {
  EXPECT_THROW(parse_request(R"({"v":1,"id":1,"kind":"rebase"})"),
               ProtocolError);
}

TEST(Wire, RebaseResponseIsOneTerminatedLine) {
  std::string out;
  append_rebase_response(out, 12, 3);
  EXPECT_EQ(out,
            "{\"v\":1,\"id\":12,\"ok\":true,\"kind\":\"rebase\","
            "\"epoch\":3}\n");
}

TEST(Wire, RebaseSlowKindNameRoundTrips) {
  const std::uint64_t code =
      static_cast<std::uint64_t>(RequestKind::kRebase);
  EXPECT_EQ(slow_kind_name(code), "rebase");
  EXPECT_EQ(slow_kind_code("rebase"), code);
}

// --------------------------------------------------------------- fixture

/// Shared fixture: a small synthetic Internet, its economy, and the
/// 40-source sample every engine caches. Expensive, so built once.
class RebaseFixture {
 public:
  RebaseFixture() {
    topology::GeneratorParams params;
    params.num_ases = 250;
    params.tier1_count = 5;
    params.seed = 20260801;
    topo_ = topology::generate_internet(params);
    compiled_.emplace(topo_.graph);
    economy_.emplace(econ::make_default_economy(topo_.graph));
    sources_ = diversity::sample_sources(topo_.graph, 40, 7);
  }

  [[nodiscard]] std::unique_ptr<QueryEngine> make_engine(
      std::size_t threads) const {
    EngineConfig config;
    config.threads = threads;
    auto engine = std::make_unique<QueryEngine>(
        *compiled_, &topo_.world, &*economy_, sources_, config);
    engine->prime();
    return engine;
  }

  [[nodiscard]] std::vector<scenario::Delta> candidates(
      std::size_t count) const {
    return scenario::candidate_peering_deltas(*compiled_, count, 4242);
  }

  /// Removes every link among the four highest-degree ASes: their
  /// neighborhoods cover most of the graph, so the ball holds more
  /// sampled sources than paths::kMinParallelSources.
  [[nodiscard]] scenario::Delta hub_delta() const {
    std::vector<AsId> hubs(topo_.graph.num_ases());
    for (AsId as = 0; as < hubs.size(); ++as) {
      hubs[as] = as;
    }
    std::stable_sort(hubs.begin(), hubs.end(), [&](AsId x, AsId y) {
      return topo_.graph.neighbors(x).size() >
             topo_.graph.neighbors(y).size();
    });
    scenario::Delta delta;
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = i + 1; j < 4; ++j) {
        if (compiled_->role_of(hubs[i], hubs[j]).has_value()) {
          delta.remove.emplace_back(hubs[i], hubs[j]);
        }
      }
    }
    return delta;
  }

  /// An unsampled source (served cold).
  [[nodiscard]] AsId cold_source() const {
    for (AsId as = 0; as < topo_.graph.num_ases(); ++as) {
      if (std::find(sources_.begin(), sources_.end(), as) ==
          sources_.end()) {
        return as;
      }
    }
    return 0;
  }

  topology::GeneratedTopology topo_;
  std::optional<topology::CompiledTopology> compiled_;
  std::optional<econ::Economy> economy_;
  std::vector<AsId> sources_;
};

const RebaseFixture& fixture() {
  static const RebaseFixture fixture;
  return fixture;
}

std::string delta_request(const char* kind, std::uint64_t id,
                          const scenario::Delta& delta) {
  std::string line = "{\"v\":1,\"id\":" + std::to_string(id) +
                     ",\"kind\":\"" + kind + "\"";
  if (!delta.add.empty()) {
    line += ",\"add\":[";
    for (std::size_t i = 0; i < delta.add.size(); ++i) {
      const scenario::LinkChange& link = delta.add[i];
      line += std::string(i == 0 ? "" : ",") +
              "{\"a\":" + std::to_string(link.a) +
              ",\"b\":" + std::to_string(link.b) + ",\"type\":\"" +
              (link.type == topology::LinkType::kPeering ? "peering"
                                                         : "transit") +
              "\"}";
    }
    line += "]";
  }
  if (!delta.remove.empty()) {
    line += ",\"remove\":[";
    for (std::size_t i = 0; i < delta.remove.size(); ++i) {
      line += std::string(i == 0 ? "" : ",") + "[" +
              std::to_string(delta.remove[i].first) + "," +
              std::to_string(delta.remove[i].second) + "]";
    }
    line += "]";
  }
  return line + "}";
}

std::string source_request(const char* kind, std::uint64_t id, AsId src) {
  return "{\"v\":1,\"id\":" + std::to_string(id) + ",\"kind\":\"" + kind +
         "\",\"source\":" + std::to_string(src) + "}";
}

/// The deterministic byte-identity script: paths and diversity over
/// sampled and cold sources, what-ifs (small candidates and the hub
/// delta) before and after a mid-script rebase, and malformed lines that
/// must answer as errors - an unknown kind, broken JSON, an empty rebase
/// and a rebase re-adding the deployed link. Excludes stats / slowlog,
/// whose responses carry process-wide counters.
std::vector<std::string> request_script(const RebaseFixture& f) {
  const std::vector<scenario::Delta> deltas = f.candidates(12);
  std::vector<std::string> lines;
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < f.sources_.size(); i += 7) {
    lines.push_back(source_request("paths", ++id, f.sources_[i]));
    lines.push_back(source_request("diversity", ++id, f.sources_[i]));
  }
  lines.push_back(source_request("paths", ++id, f.cold_source()));
  lines.push_back(source_request("diversity", ++id, f.cold_source()));
  for (const scenario::Delta& delta : deltas) {
    lines.push_back(delta_request("whatif", ++id, delta));
  }
  lines.push_back(delta_request("whatif", ++id, f.hub_delta()));
  lines.push_back(delta_request("rebase", ++id, deltas[0]));
  for (const scenario::Delta& delta : deltas) {
    lines.push_back(delta_request("whatif", ++id, delta));
  }
  lines.push_back(delta_request("whatif", ++id, f.hub_delta()));
  lines.push_back(source_request("paths", ++id, f.sources_[1]));
  lines.push_back(source_request("diversity", ++id, f.sources_[1]));
  lines.push_back("{\"v\":1,\"id\":9001,\"kind\":\"nope\"}");
  lines.push_back("not json at all");
  lines.push_back("{\"v\":1,\"id\":9002,\"kind\":\"rebase\"}");  // empty
  lines.push_back(delta_request("rebase", 9003, deltas[0]));  // re-add
  return lines;
}

[[nodiscard]] std::string run_script_direct(
    QueryEngine& engine, const std::vector<std::string>& lines) {
  std::string all;
  for (const std::string& line : lines) {
    engine.handle_line(line, all);
  }
  return all;
}

/// Every "recomputed_sources" value in a session transcript.
[[nodiscard]] std::vector<std::size_t> recomputed_counts(
    const std::string& transcript) {
  static const std::string key = "\"recomputed_sources\":";
  std::vector<std::size_t> counts;
  for (std::size_t at = transcript.find(key); at != std::string::npos;
       at = transcript.find(key, at + 1)) {
    counts.push_back(std::stoul(transcript.substr(at + key.size())));
  }
  return counts;
}

// -------------------------------------------- engine byte-identity

TEST(QueryEngine, SessionByteIdenticalAcrossEngineThreads) {
  const RebaseFixture& f = fixture();
  const std::vector<std::string> script = request_script(f);
  const std::string expected = run_script_direct(*f.make_engine(1), script);
  ASSERT_FALSE(expected.empty());
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(run_script_direct(*f.make_engine(threads), script), expected)
        << threads << "-thread responses diverged";
  }

  // The script must fan out on both sides of map_indices' default
  // serial threshold (kMinParallelSources): what-ifs with 2-31 dirty
  // sources, which only the what-if's own threshold of 2 spreads, and
  // the hub delta above it.
  const std::vector<std::size_t> dirty = recomputed_counts(expected);
  EXPECT_TRUE(std::any_of(dirty.begin(), dirty.end(), [](std::size_t n) {
    return n >= 2 && n < paths::kMinParallelSources;
  }));
  EXPECT_TRUE(std::any_of(dirty.begin(), dirty.end(), [](std::size_t n) {
    return n >= paths::kMinParallelSources;
  }));
  // The rebase landed; the four error lines and the post-rebase what-if
  // of the deployed link (now a re-add) answered as errors.
  EXPECT_NE(expected.find("\"kind\":\"rebase\",\"epoch\":1}"),
            std::string::npos);
  std::size_t errors = 0;
  for (std::size_t at = expected.find("\"ok\":false");
       at != std::string::npos; at = expected.find("\"ok\":false", at + 1)) {
    ++errors;
  }
  EXPECT_EQ(errors, 5u);
}

TEST(QueryEngine, RebaseKindBumpsEpochOnce) {
  const RebaseFixture& f = fixture();
  const auto engine = f.make_engine(2);
  const std::vector<scenario::Delta> deltas = f.candidates(2);
  const std::string probe = delta_request("whatif", 7, f.hub_delta());
  EXPECT_EQ(engine->epoch(), 0u);

  std::string out;
  engine->handle_line(delta_request("rebase", 1, deltas[0]), out);
  EXPECT_EQ(out,
            "{\"v\":1,\"id\":1,\"ok\":true,\"kind\":\"rebase\","
            "\"epoch\":1}\n");
  EXPECT_EQ(engine->epoch(), 1u);
  std::string rebased;
  engine->handle_line(probe, rebased);

  // An empty rebase fails to parse; an invalid one (re-adding the link
  // just deployed) is rejected by the overlay. Neither moves the epoch
  // or the state.
  for (const std::string& bad :
       {std::string("{\"v\":1,\"id\":2,\"kind\":\"rebase\"}"),
        delta_request("rebase", 3, deltas[0])}) {
    out.clear();
    engine->handle_line(bad, out);
    EXPECT_NE(out.find("\"ok\":false"), std::string::npos) << out;
    EXPECT_EQ(engine->epoch(), 1u);
  }
  out.clear();
  engine->handle_line(probe, out);
  EXPECT_EQ(out, rebased);

  // The library call returns the epoch it published.
  EXPECT_EQ(engine->rebase(deltas[1]), 2u);
  EXPECT_EQ(engine->epoch(), 2u);
}

// --------------------------------------------- through the server

TEST(Server, RebaseSessionByteIdenticalAcrossWorkerCounts) {
  const RebaseFixture& f = fixture();
  const std::vector<std::string> script = request_script(f);
  const std::string expected = run_script_direct(*f.make_engine(1), script);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    const auto engine = f.make_engine(2);
    ServerConfig config;
    config.worker_threads = workers;
    Server server(*engine, config);
    server.start();
    std::string all;
    {
      ClientConnection conn(server.port());
      // Closed loop: send, await the response, so response order is
      // request order and the concatenation is diffable.
      for (const std::string& line : script) {
        conn.send_line(line);
        all += conn.read_line();
      }
    }
    server.stop();
    EXPECT_EQ(all, expected) << workers << " workers diverged";
    EXPECT_GE(server.handled_requests(), script.size());
    EXPECT_EQ(engine->epoch(), 1u);
  }
}

// ------------------------------------------------ rebase atomicity

TEST(QueryEngine, ConcurrentRebaseServesOldOrNewBytes) {
  const RebaseFixture& f = fixture();
  const std::vector<scenario::Delta> deltas = f.candidates(12);
  const scenario::Delta& step = deltas[0];

  // Probes whose responses the rebase actually changes: a what-if that
  // fans out, and the diversity of a source inside the step's ball.
  const auto reference = f.make_engine(1);
  const auto rebased = f.make_engine(1);
  rebased->rebase(step);
  const auto answer = [](QueryEngine& engine, const std::string& line) {
    std::string out;
    engine.handle_line(line, out);
    return out;
  };
  std::vector<std::string> candidates{
      delta_request("whatif", 1, f.hub_delta())};
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    candidates.push_back(delta_request("whatif", 1, deltas[i]));
  }
  for (const AsId src : f.sources_) {
    candidates.push_back(source_request("diversity", 2, src));
  }
  struct Probe {
    std::string line;
    std::string before;
    std::string after;
  };
  std::vector<Probe> probes;
  bool have_whatif = false;
  bool have_diversity = false;
  for (const std::string& line : candidates) {
    const bool whatif = line.find("\"whatif\"") != std::string::npos;
    if (whatif ? have_whatif : have_diversity) {
      continue;
    }
    std::string before = answer(*reference, line);
    std::string after = answer(*rebased, line);
    if (before != after &&
        (!whatif || recomputed_counts(before).front() >= 2)) {
      (whatif ? have_whatif : have_diversity) = true;
      probes.push_back({line, std::move(before), std::move(after)});
    }
  }
  ASSERT_TRUE(have_whatif) << "no fanned-out what-if moves with the step";
  ASSERT_TRUE(have_diversity) << "no sampled diversity moves with the step";

  // Readers hammer both probes while the rebase lands: every response
  // must be the complete old answer or the complete new one. A request
  // that mixed states (old contributions with the new baseline, say)
  // would produce a third byte pattern.
  const auto engine = f.make_engine(2);
  std::atomic<bool> go{false};
  std::atomic<int> mixed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 8; ++i) {
        for (const Probe& probe : probes) {
          const std::string out = answer(*engine, probe.line);
          if (out != probe.before && out != probe.after) {
            mixed.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread rebaser([&] {
    while (!go.load()) {
    }
    engine->rebase(step);
  });
  go.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  rebaser.join();
  EXPECT_EQ(mixed.load(), 0);
  // Settled state serves the post-rebase bytes.
  for (const Probe& probe : probes) {
    EXPECT_EQ(answer(*engine, probe.line), probe.after);
  }
}

// ----------------------------------- randomized rebase programs

/// A randomized deployment program over the fixture and, per step, a
/// what-if that is valid on top of it.
struct RandomProgram {
  std::vector<scenario::Delta> steps;
  std::vector<scenario::Delta> probes;
  /// How many steps of each kind: add, base-link removal, rewire, hub.
  std::size_t kinds[4] = {0, 0, 0, 0};
};

/// `size` steps, each a candidate peering add, the removal of a base link
/// still up, a rewire (an earlier-added link removed, another added) or,
/// once, the fixture's hub_delta() (the hub links still up); every step is
/// valid on the program so far.
RandomProgram random_program(const RebaseFixture& f, std::uint64_t seed,
                             std::size_t size) {
  util::Rng rng(seed);
  const std::vector<scenario::Delta> pool = f.candidates(200);
  const auto& links = f.topo_.graph.links();
  const std::size_t hub_step = 4 + rng.uniform_index(size - 8);
  RandomProgram program;
  scenario::Delta composed;
  scenario::Overlay view(*f.compiled_);
  // A pool candidate whose pair is unlinked in the current state.
  const auto fresh_add = [&] {
    for (;;) {
      const scenario::LinkChange& add =
          pool[rng.uniform_index(pool.size())].add.front();
      if (!view.role_of(add.a, add.b).has_value()) {
        return add;
      }
    }
  };
  while (program.steps.size() < size) {
    scenario::Delta step;
    std::size_t kind = program.steps.size() == hub_step
                           ? 3
                           : rng.uniform_index(3);
    if (kind == 2 && composed.add.empty()) {
      kind = 0;
    }
    if (kind == 0) {
      step.add.push_back(fresh_add());
    } else if (kind == 1) {
      for (;;) {
        const topology::Link& link = links[rng.uniform_index(links.size())];
        if (view.role_of(link.a, link.b).has_value()) {
          step.remove.emplace_back(link.a, link.b);
          break;
        }
      }
    } else if (kind == 2) {
      const scenario::LinkChange& old =
          composed.add[rng.uniform_index(composed.add.size())];
      step.remove.emplace_back(old.a, old.b);
      step.add.push_back(fresh_add());
    } else {
      // Every hub link an earlier removal left up.
      for (const auto& [x, y] : f.hub_delta().remove) {
        if (view.role_of(x, y).has_value()) {
          step.remove.emplace_back(x, y);
        }
      }
    }
    composed = scenario::compose(composed, step);
    view.clear();
    view.apply(composed);
    ++program.kinds[kind];
    program.steps.push_back(std::move(step));
    scenario::Delta probe;
    probe.add.push_back(fresh_add());
    program.probes.push_back(std::move(probe));
  }
  return program;
}

template <typename T>
[[nodiscard]] bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Checks `engine` against a full refold of `composed`: every sampled
/// source's paths equal a fresh enumeration, its diversity the
/// contribution of that enumeration, to the bit, and the state metrics
/// the finalized in-order sum of those contributions.
void expect_full_refold(const RebaseFixture& f, const QueryEngine& engine,
                        const scenario::MetricsAggregator& aggregator,
                        const scenario::Delta& composed,
                        const std::string& where) {
  scenario::Overlay overlay(*f.compiled_);
  overlay.apply(composed);
  scenario::SourceContribution total;
  for (const AsId src : f.sources_) {
    const scenario::SourcePathSet fresh =
        scenario::enumerate_length3(overlay, src);
    engine.paths(src, [&](const scenario::SourcePathSet& sets) {
      EXPECT_TRUE(sets == fresh) << where << ", paths of " << src;
    });
    const scenario::SourceContribution refold =
        aggregator.contribution(overlay, fresh);
    total += refold;
    const double mean_km =
        refold.km_pairs > 0
            ? refold.km_sum / static_cast<double>(refold.km_pairs)
            : 0.0;
    const DiversityResult got = engine.diversity(src);
    EXPECT_TRUE(same_bytes(got.grc_paths, refold.grc_paths) &&
                same_bytes(got.ma_paths, refold.ma_paths) &&
                same_bytes(got.grc_pairs, refold.grc_pairs) &&
                same_bytes(got.ma_extra_pairs, refold.ma_extra_pairs) &&
                same_bytes(got.mean_best_geodistance_km, mean_km) &&
                same_bytes(got.transit_fees, refold.transit_fees))
        << where << ", diversity of " << src;
  }
  const scenario::ScenarioMetrics expected = scenario::finalize(total);
  const scenario::ScenarioMetrics got = engine.state_metrics();
  EXPECT_TRUE(same_bytes(got.grc_paths, expected.grc_paths) &&
              same_bytes(got.ma_paths, expected.ma_paths) &&
              same_bytes(got.grc_pairs, expected.grc_pairs) &&
              same_bytes(got.ma_extra_pairs, expected.ma_extra_pairs) &&
              same_bytes(got.mean_best_geodistance_km,
                         expected.mean_best_geodistance_km) &&
              same_bytes(got.transit_fees, expected.transit_fees))
      << where << ", state metrics";
}

TEST(QueryEngine, RandomRebaseProgramsMatchAFullRefold) {
  const RebaseFixture& f = fixture();
  const scenario::MetricsAggregator aggregator(*f.compiled_, &f.topo_.world,
                                               &*f.economy_);
  for (const std::uint64_t seed : {1u, 2u}) {
    const RandomProgram program = random_program(f, seed, 24);
    for (const std::size_t count : program.kinds) {
      ASSERT_GT(count, 0u) << "seed " << seed << " misses a step kind";
    }
    std::vector<std::string> transcripts;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const auto engine = f.make_engine(threads);
      std::string transcript;
      scenario::Delta composed;
      std::uint64_t id = 0;
      for (std::size_t k = 0; k < program.steps.size(); ++k) {
        const std::string where = "seed " + std::to_string(seed) + ", " +
                                  std::to_string(threads) +
                                  " threads, after step " +
                                  std::to_string(k + 1);
        engine->handle_line(delta_request("rebase", ++id, program.steps[k]),
                            transcript);
        composed = scenario::compose(composed, program.steps[k]);
        expect_full_refold(f, *engine, aggregator, composed, where);
        engine->handle_line(delta_request("whatif", ++id, program.probes[k]),
                            transcript);
        const AsId src = f.sources_[k % f.sources_.size()];
        engine->handle_line(source_request("paths", ++id, src), transcript);
        engine->handle_line(source_request("diversity", ++id, src),
                            transcript);
      }
      EXPECT_EQ(engine->epoch(), program.steps.size());
      EXPECT_EQ(transcript.find("\"ok\":false"), std::string::npos);
      transcripts.push_back(std::move(transcript));
    }
    EXPECT_EQ(transcripts[1], transcripts[0]) << "seed " << seed << ", 2 threads";
    EXPECT_EQ(transcripts[2], transcripts[0]) << "seed " << seed << ", 8 threads";
  }
}

}  // namespace
}  // namespace panagree::serve
