// The one way panagree-serve and panagree-query (--direct / --bench)
// build the serving stack, factored out so the two sides cannot drift:
// the byte-identity contract of the serving layer ("server responses ==
// direct library calls") only holds if both construct the engine from
// the same topology, the same source sample (sample seed included), the
// same economy and the same scoring weights.
//
// Cold start: constructing the context opens the snapshot, builds the
// economy and the engine, whose MetricsAggregator builds the geodistance
// tables (one great circle per distinct AS-city leg); on the 3000-AS
// fixture that is 10-25 ms whatever the sample size. prime() then
// enumerates every sampled source and folds their per-source
// contributions, both in parallel over the engine threads from two
// sources on (at 2 threads: ~5 + ~6 ms for 30 sources, 65-95 + 65-105
// ms for 500), so the context is serve-ready. The cached path sets are
// gap-coded (scenario::SourcePathSet): 3.9 MB for those 500 sources, of
// a daemon peak near 17-19 MB.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "bench_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/serve/query_engine.hpp"

namespace panagree::servecfg {

/// Everything a serving process keeps resident, in construction order
/// (each member borrows from the earlier ones). Not movable: the engine
/// holds pointers into the bundle.
struct ServeContext {
  /// `snapshot_override` follows benchcfg::load_internet semantics (a
  /// --snapshot flag wins over PANAGREE_SNAPSHOT / PANAGREE_CAIDA /
  /// the synthetic generator); `sources_n` is the cached sample size,
  /// sampled with the benches' shared seed.
  ServeContext(const char* snapshot_override, std::size_t sources_n,
               std::size_t threads, std::size_t max_batch)
      : net(benchcfg::load_internet(0, snapshot_override)),
        economy(econ::make_default_economy(net.graph())),
        sources(diversity::sample_sources(net.graph(), sources_n,
                                          benchcfg::kSampleSeed)),
        engine(net.compiled(), &net.world(), &economy, sources,
               engine_config(threads, max_batch)) {}

  /// perfbench's binding (it passes a fifth argument of 1): the same
  /// context, kept until perfbench calls the constructor above.
  ServeContext(const char* snapshot_override, std::size_t sources_n,
               std::size_t threads, std::size_t max_batch,
               std::size_t engines_n)
      : ServeContext(snapshot_override, sources_n, threads, max_batch) {
    util::require(engines_n == 1, "serve: one engine serves every source");
  }

  ServeContext(const ServeContext&) = delete;
  ServeContext& operator=(const ServeContext&) = delete;

  /// Primes the engine; returns the wall time of both prime phases.
  /// Serve through `engine` afterwards.
  serve::PrimeTiming prime() { return engine.prime(); }

  benchcfg::Internet net;
  econ::Economy economy;
  std::vector<topology::AsId> sources;
  serve::QueryEngine engine;
  /// perfbench's bindings (`*context.engines.front()`,
  /// `context.router.*`): aliases of `engine`.
  std::array<serve::QueryEngine*, 1> engines{&engine};
  serve::QueryEngine& router = engine;

 private:
  static serve::EngineConfig engine_config(std::size_t threads,
                                           std::size_t max_batch) {
    serve::EngineConfig config;
    config.threads = threads;
    config.max_batch = max_batch;
    return config;
  }
};

}  // namespace panagree::servecfg
