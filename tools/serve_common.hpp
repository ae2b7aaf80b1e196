// The one way panagree-serve and panagree-query (--direct / --bench)
// build the serving stack, factored out so the two sides cannot drift:
// the byte-identity contract of the serving layer ("server responses ==
// direct library calls") only holds if both construct the engines from
// the same topology, the same source sample (sample seed included), the
// same economy, the same scoring weights, and the same shard partition.
//
// Sharding: the canonical source sample is split into `shards`
// contiguous ranges (shard s owns sources [s*n/shards, (s+1)*n/shards)),
// one QueryEngine per range, fronted by a serve::ShardRouter. shards=1
// degenerates to the old single-engine layout - the router adds one
// indirection but changes no bytes.
//
// Cold start: prime() enumerates every shard's sampled sources, then
// folds their per-source contributions in parallel over the engine
// threads (500 sources on the 3000-AS fixture at 2 threads: ~0.1 s of
// enumeration, ~0.2 s of fold). Afterwards the router baseline is
// refreshed, so the context is serve-ready.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/serve/query_engine.hpp"
#include "panagree/serve/shard_router.hpp"

namespace panagree::servecfg {

/// Everything a serving process keeps resident, in construction order
/// (each member borrows from the earlier ones). Not movable: the engines
/// hold pointers into the bundle and the router holds the engines.
struct ServeContext {
  /// `snapshot_override` follows benchcfg::load_internet semantics (a
  /// --snapshot flag wins over PANAGREE_SNAPSHOT / PANAGREE_CAIDA /
  /// the synthetic generator); `sources_n` is the cached sample size,
  /// sampled with the benches' shared seed.
  ServeContext(const char* snapshot_override, std::size_t sources_n,
               std::size_t threads, std::size_t max_batch,
               std::size_t shards = 1)
      : net(benchcfg::load_internet(0, snapshot_override)),
        economy(econ::make_default_economy(net.graph())),
        sources(diversity::sample_sources(net.graph(), sources_n,
                                          benchcfg::kSampleSeed)),
        engines(make_engines(net, economy, sources, shards, threads,
                             max_batch)),
        router(engine_pointers(engines), router_config(max_batch)) {}

  ServeContext(const ServeContext&) = delete;
  ServeContext& operator=(const ServeContext&) = delete;

  /// Primes every shard and publishes the router baseline; returns the
  /// wall time of both prime phases summed over the shards. Serve
  /// through `router` afterwards.
  serve::PrimeTiming prime() {
    serve::PrimeTiming timing;
    for (const std::unique_ptr<serve::QueryEngine>& engine : engines) {
      timing += engine->prime();
    }
    router.refresh_baseline();
    return timing;
  }

  benchcfg::Internet net;
  econ::Economy economy;
  std::vector<topology::AsId> sources;
  /// The shard engines, in partition order; `router` fronts them.
  std::vector<std::unique_ptr<serve::QueryEngine>> engines;
  serve::ShardRouter router;

 private:
  static serve::EngineConfig engine_config(std::size_t threads,
                                           std::size_t max_batch) {
    serve::EngineConfig config;
    config.threads = threads;
    config.max_batch = max_batch;
    return config;
  }

  static serve::RouterConfig router_config(std::size_t max_batch) {
    serve::RouterConfig config;
    config.max_batch = max_batch;
    return config;
  }

  static std::vector<std::unique_ptr<serve::QueryEngine>> make_engines(
      const benchcfg::Internet& net, const econ::Economy& economy,
      const std::vector<topology::AsId>& sources, std::size_t shards,
      std::size_t threads, std::size_t max_batch) {
    util::require(shards > 0, "serve: need at least one shard");
    util::require(shards <= std::max<std::size_t>(sources.size(), 1),
                  "serve: more shards than sampled sources");
    std::vector<std::unique_ptr<serve::QueryEngine>> engines;
    engines.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = s * sources.size() / shards;
      const std::size_t end = (s + 1) * sources.size() / shards;
      engines.push_back(std::make_unique<serve::QueryEngine>(
          net.compiled(), &net.world(), &economy,
          std::vector<topology::AsId>(sources.begin() + begin,
                                      sources.begin() + end),
          engine_config(threads, max_batch)));
    }
    return engines;
  }

  static std::vector<serve::QueryEngine*> engine_pointers(
      const std::vector<std::unique_ptr<serve::QueryEngine>>& engines) {
    std::vector<serve::QueryEngine*> pointers;
    pointers.reserve(engines.size());
    for (const std::unique_ptr<serve::QueryEngine>& engine : engines) {
      pointers.push_back(engine.get());
    }
    return pointers;
  }
};

}  // namespace panagree::servecfg
