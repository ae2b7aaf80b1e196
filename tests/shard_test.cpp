// Sharded serving tests: the shard-routing byte-identity property
// (N-shard ShardRouter responses == the 1-shard stack, through the
// library and through a pooled-reader Server at 1/2/8 worker threads,
// rebase included), epoch-barrier atomicity under concurrent rebase (a
// reader observes the old fleet or the new fleet, never a mix), and the
// `rebase` wire kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/client.hpp"
#include "panagree/serve/server.hpp"
#include "panagree/serve/shard_router.hpp"
#include "panagree/serve/wire.hpp"
#include "panagree/topology/generator.hpp"

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
/// 40-source sample every stack partitions. Expensive, so built once.
class ShardFixture {
 public:
  ShardFixture() {
    topology::GeneratorParams params;
    params.num_ases = 250;
    params.tier1_count = 5;
    params.seed = 20260801;
    topo_ = topology::generate_internet(params);
    compiled_.emplace(topo_.graph);
    economy_.emplace(econ::make_default_economy(topo_.graph));
    sources_ = diversity::sample_sources(topo_.graph, 40, 7);
  }

  [[nodiscard]] std::vector<scenario::Delta> candidates(
      std::size_t count) const {
    return scenario::candidate_peering_deltas(*compiled_, count, 4242);
  }

  /// An unsampled source (served cold, routed to shard 0).
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

const ShardFixture& fixture() {
  static const ShardFixture fixture;
  return fixture;
}

/// One serving stack: the partitioned engines plus the router fronting
/// them, primed and baseline-published - what servecfg::ServeContext
/// builds, minus the topology loading.
struct ShardedStack {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  std::unique_ptr<ShardRouter> router;
};

ShardedStack make_stack(const ShardFixture& f, std::size_t shards) {
  ShardedStack stack;
  const std::size_t n = f.sources_.size();
  std::vector<QueryEngine*> pointers;
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<AsId> part(f.sources_.begin() + s * n / shards,
                           f.sources_.begin() + (s + 1) * n / shards);
    stack.engines.push_back(std::make_unique<QueryEngine>(
        *f.compiled_, &f.topo_.world, &*f.economy_, std::move(part)));
    stack.engines.back()->prime();
    pointers.push_back(stack.engines.back().get());
  }
  stack.router = std::make_unique<ShardRouter>(std::move(pointers));
  stack.router->refresh_baseline();
  return stack;
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

/// The deterministic byte-identity script: every routed kind over
/// sampled and cold sources, what-ifs before and after a mid-script
/// rebase (so the fleet-wide fold is exercised against both states),
/// and malformed lines that must answer as errors. Excludes stats /
/// slowlog, whose responses carry process-wide counters.
std::vector<std::string> request_script(const ShardFixture& f) {
  const std::vector<scenario::Delta> deltas = f.candidates(4);
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
  lines.push_back(delta_request("rebase", ++id, deltas[0]));
  for (const scenario::Delta& delta : deltas) {
    lines.push_back(delta_request("whatif", ++id, delta));
  }
  lines.push_back(source_request("paths", ++id, f.sources_[1]));
  lines.push_back("{\"v\":1,\"id\":9001,\"kind\":\"nope\"}");
  lines.push_back("not json at all");
  lines.push_back("{\"v\":1,\"id\":9002,\"kind\":\"rebase\"}");  // empty
  return lines;
}

[[nodiscard]] std::string run_script_direct(
    ShardRouter& router, const std::vector<std::string>& lines) {
  std::string all;
  for (const std::string& line : lines) {
    router.handle_line(line, all);
  }
  return all;
}

// ------------------------------------------- router byte-identity

TEST(ShardRouter, ResponsesByteIdenticalAcrossShardCounts) {
  const ShardFixture& f = fixture();
  const std::vector<std::string> script = request_script(f);
  ShardedStack one = make_stack(f, 1);
  const std::string expected = run_script_direct(*one.router, script);
  ASSERT_FALSE(expected.empty());
  for (const std::size_t shards : {2u, 4u, 8u}) {
    ShardedStack stack = make_stack(f, shards);
    EXPECT_EQ(stack.router->num_shards(), shards);
    EXPECT_EQ(run_script_direct(*stack.router, script), expected)
        << shards << "-shard responses diverged";
  }
}

TEST(ShardRouter, RebaseBumpsFleetEpochOnce) {
  const ShardFixture& f = fixture();
  ShardedStack stack = make_stack(f, 4);
  const std::vector<scenario::Delta> deltas = f.candidates(2);
  EXPECT_EQ(stack.router->epoch(), 0u);
  EXPECT_EQ(stack.router->rebase(deltas[0]), 1u);
  EXPECT_EQ(stack.router->rebase(deltas[1]), 2u);
  EXPECT_EQ(stack.router->epoch(), 2u);
  // Every shard advanced with the fleet.
  for (const std::unique_ptr<QueryEngine>& engine : stack.engines) {
    EXPECT_EQ(engine->epoch(), 2u);
  }
}

// --------------------------------------------- through the server

TEST(Server, ShardedResponsesByteIdenticalAcrossWorkerCounts) {
  const ShardFixture& f = fixture();
  const std::vector<std::string> script = request_script(f);
  ShardedStack reference = make_stack(f, 1);
  const std::string expected = run_script_direct(*reference.router, script);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ShardedStack stack = make_stack(f, 4);
    ServerConfig config;
    config.worker_threads = workers;
    Server server(*stack.router, config);
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
  }
}

// ------------------------------------------------ rebase atomicity

TEST(ShardRouter, ConcurrentRebaseNeverServesMixedEpochs) {
  const ShardFixture& f = fixture();
  const std::vector<scenario::Delta> deltas = f.candidates(4);
  const scenario::Delta& step = deltas[0];

  // A probe whose response the rebase actually changes (over 250 ASes
  // some candidate's score moves when another link lands).
  std::string probe_line;
  std::string expected_before;
  std::string expected_after;
  {
    ShardedStack reference = make_stack(f, 2);
    for (std::size_t i = 1; i < deltas.size() && probe_line.empty(); ++i) {
      const std::string line = delta_request("whatif", 1, deltas[i]);
      std::string before;
      reference.router->handle_line(line, before);
      ShardedStack rebased = make_stack(f, 2);
      rebased.router->rebase(step);
      std::string after;
      rebased.router->handle_line(line, after);
      if (before != after) {
        probe_line = line;
        expected_before = std::move(before);
        expected_after = std::move(after);
      }
    }
  }
  ASSERT_FALSE(probe_line.empty())
      << "no candidate probe is affected by the step";

  // Readers hammer the probe while the rebase lands: every response
  // must be the complete old fleet or the complete new fleet. A mixed
  // epoch (some shards rebased, some not) would splice contributions of
  // different states and produce a third byte pattern.
  ShardedStack stack = make_stack(f, 2);
  std::atomic<bool> go{false};
  std::atomic<int> mixed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 8; ++i) {
        std::string out;
        stack.router->handle_line(probe_line, out);
        if (out != expected_before && out != expected_after) {
          mixed.fetch_add(1);
        }
      }
    });
  }
  std::thread rebaser([&] {
    while (!go.load()) {
    }
    stack.router->rebase(step);
  });
  go.store(true);
  for (std::thread& reader : readers) {
    reader.join();
  }
  rebaser.join();
  EXPECT_EQ(mixed.load(), 0);
  // Settled state serves the post-rebase bytes.
  std::string out;
  stack.router->handle_line(probe_line, out);
  EXPECT_EQ(out, expected_after);
}

}  // namespace
}  // namespace panagree::serve
