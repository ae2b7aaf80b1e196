// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// topology generation, beaconing, diversity counting, PAN forwarding, the
// BOSCO mechanism pipeline, and the scenario sweep engine.
//
// The *_GraphBaseline benchmarks preserve the pre-CSR implementations
// (per-hop Graph::neighbors() allocation + unordered_map role lookups)
// so the CompiledTopology speedup is measured, not asserted: compare
// BM_RoleLookup_GraphBaseline vs BM_RoleLookup_Compiled and
// BM_Length3*_GraphBaseline vs BM_Length3*_Csr. Likewise
// BM_ScenarioSweep_FullRecompute (copy graph + recompile + recompute per
// scenario) is the preserved baseline for BM_ScenarioSweep_Incremental.
//
// Results are also written to BENCH_perf_micro.json (see main below).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "panagree/bgp/analysis.hpp"
#include "panagree/core/bosco/efficiency.hpp"
#include "panagree/core/bosco/equilibrium.hpp"
#include "panagree/diversity/length3.hpp"
#include "panagree/dynamics/convergence.hpp"
#include "exhaustive_rank.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/obs/build_info.hpp"
#include "panagree/obs/metrics.hpp"
#include "panagree/obs/slowlog.hpp"
#include "panagree/scenario/optimizer.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/pan/beaconing.hpp"
#include "panagree/pan/forwarding.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/scenario/failure.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/query_engine.hpp"
#include "panagree/sim/engine.hpp"
#include "panagree/storage/snapshot.hpp"
#include "panagree/topology/capacity.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/examples.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/rng.hpp"

namespace {

using namespace panagree;

const topology::GeneratedTopology& cached_topology() {
  static const topology::GeneratedTopology topo = [] {
    topology::GeneratorParams params;
    params.num_ases = 3000;
    params.tier1_count = 8;
    params.seed = 99;
    return topology::generate_internet(params);
  }();
  return topo;
}

const topology::CompiledTopology& cached_compiled() {
  static const topology::CompiledTopology compiled(cached_topology().graph);
  return compiled;
}

void BM_GenerateInternet(benchmark::State& state) {
  topology::GeneratorParams params;
  params.num_ases = static_cast<std::size_t>(state.range(0));
  params.tier1_count = 6;
  params.seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::generate_internet(params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateInternet)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_Beaconing(benchmark::State& state) {
  const auto& topo = cached_topology();
  for (auto _ : state) {
    pan::BeaconService beacons(topo.graph);
    beacons.run();
    benchmark::DoNotOptimize(beacons.up_segments(topo.tier3.front()));
  }
}
BENCHMARK(BM_Beaconing)->Unit(benchmark::kMillisecond);

void BM_Length3Count(benchmark::State& state) {
  const auto& topo = cached_topology();
  const diversity::Length3Analyzer analyzer(topo.graph);
  topology::AsId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.count(src, {1, 5, 50}));
    src = (src + 17) % static_cast<topology::AsId>(topo.graph.num_ases());
  }
}
BENCHMARK(BM_Length3Count);

// ------------------------------------------------- CSR before/after pairs

/// Mixed linked/unlinked AS pairs for the role-lookup benchmarks.
std::vector<std::pair<topology::AsId, topology::AsId>> lookup_pairs() {
  const auto& g = cached_topology().graph;
  util::Rng rng(4242);
  std::vector<std::pair<topology::AsId, topology::AsId>> pairs;
  pairs.reserve(2048);
  for (int i = 0; i < 1024; ++i) {
    const auto& link = g.link(rng.uniform_index(g.num_links()));
    pairs.emplace_back(link.a, link.b);
    pairs.emplace_back(
        static_cast<topology::AsId>(rng.uniform_index(g.num_ases())),
        static_cast<topology::AsId>(rng.uniform_index(g.num_ases())));
  }
  return pairs;
}

void BM_RoleLookup_GraphBaseline(benchmark::State& state) {
  const auto& g = cached_topology().graph;
  const auto pairs = lookup_pairs();
  for (auto _ : state) {
    for (const auto& [x, y] : pairs) {
      benchmark::DoNotOptimize(g.role_of(x, y));
    }
  }
  state.SetItemsProcessed(state.iterations() * pairs.size());
}
BENCHMARK(BM_RoleLookup_GraphBaseline);

void BM_RoleLookup_Compiled(benchmark::State& state) {
  const auto& c = cached_compiled();
  const auto pairs = lookup_pairs();
  for (auto _ : state) {
    for (const auto& [x, y] : pairs) {
      benchmark::DoNotOptimize(c.role_of(x, y));
    }
  }
  state.SetItemsProcessed(state.iterations() * pairs.size());
}
BENCHMARK(BM_RoleLookup_Compiled);

/// The pre-CSR length-3 GRC enumeration (Graph::neighbors() allocates per
/// mid AS), preserved as the speedup baseline.
std::size_t legacy_grc_paths(const topology::Graph& g, topology::AsId src) {
  std::size_t count = 0;
  for (const topology::AsId m : g.providers(src)) {
    for (const topology::AsId d : g.neighbors(m)) {
      count += d != src;
    }
  }
  for (const topology::AsId m : g.peers(src)) {
    for (const topology::AsId d : g.customers(m)) {
      count += d != src;
    }
  }
  for (const topology::AsId m : g.customers(src)) {
    for (const topology::AsId d : g.customers(m)) {
      count += d != src;
    }
  }
  return count;
}

/// The pre-CSR MA enumeration (unordered_map role lookup per candidate),
/// preserved as the speedup baseline.
std::size_t legacy_ma_paths(const topology::Graph& g, topology::AsId src) {
  std::vector<std::pair<topology::AsId, topology::AsId>> out;
  const auto excluded = [&](topology::AsId z) {
    return z == src ||
           g.role_of(src, z) == topology::NeighborRole::kCustomer;
  };
  for (const topology::AsId p : g.peers(src)) {
    for (const topology::AsId z : g.providers(p)) {
      if (!excluded(z)) {
        out.emplace_back(p, z);
      }
    }
    for (const topology::AsId z : g.peers(p)) {
      if (!excluded(z)) {
        out.emplace_back(p, z);
      }
    }
  }
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(out.size() * 2);
  for (const auto& [m, d] : out) {
    seen.insert((static_cast<std::uint64_t>(m) << 32) | d);
  }
  const auto add_indirect = [&](topology::AsId p) {
    for (const topology::AsId q : g.peers(p)) {
      if (q == src ||
          g.role_of(q, src) == topology::NeighborRole::kCustomer) {
        continue;
      }
      if (seen.insert((static_cast<std::uint64_t>(p) << 32) | q).second) {
        out.emplace_back(p, q);
      }
    }
  };
  for (const topology::AsId p : g.customers(src)) {
    add_indirect(p);
  }
  for (const topology::AsId p : g.peers(src)) {
    add_indirect(p);
  }
  return out.size();
}

void BM_Length3Enumeration_GraphBaseline(benchmark::State& state) {
  const auto& g = cached_topology().graph;
  topology::AsId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_grc_paths(g, src) +
                             legacy_ma_paths(g, src));
    src = (src + 17) % static_cast<topology::AsId>(g.num_ases());
  }
}
BENCHMARK(BM_Length3Enumeration_GraphBaseline);

// `paths` fingerprints the walk: the GRC + MA path count of a fixed
// source list (the first 256 sources of the timed rotation), counted
// once after the timing loop so the per-iteration time is the walk alone.
void BM_Length3Enumeration_Csr(benchmark::State& state) {
  const diversity::Length3Analyzer analyzer(cached_topology().graph);
  const auto& g = cached_topology().graph;
  const auto n = static_cast<topology::AsId>(g.num_ases());
  topology::AsId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.grc_paths(src).size() +
                             analyzer.ma_paths(src).size());
    src = (src + 17) % n;
  }
  static const std::size_t paths = [&] {
    std::size_t count = 0;
    topology::AsId fixed = 0;
    for (int i = 0; i < 256; ++i) {
      count += analyzer.grc_paths(fixed).size() +
               analyzer.ma_paths(fixed).size();
      fixed = (fixed + 17) % n;
    }
    return count;
  }();
  state.counters["paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_Length3Enumeration_Csr);

void BM_CompileTopology(benchmark::State& state) {
  const auto& g = cached_topology().graph;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::CompiledTopology(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_links());
}
BENCHMARK(BM_CompileTopology)->Unit(benchmark::kMillisecond);

void BM_DiversityReport_Threads(benchmark::State& state) {
  const auto& topo = cached_topology();
  diversity::DiversityParams params;
  params.sample_sources = 200;
  params.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        diversity::analyze_path_diversity(topo.graph, params));
  }
}
BENCHMARK(BM_DiversityReport_Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SipHash(benchmark::State& state) {
  const pan::MacKey key{1, 2};
  std::uint64_t word = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pan::siphash24_words(key, {word, word + 1, 3}));
    ++word;
  }
}
BENCHMARK(BM_SipHash);

void BM_IssueAndForward(benchmark::State& state) {
  const auto t = topology::make_fig1();
  const pan::KeyStore keys(1, t.graph.num_ases());
  const pan::ForwardingEngine engine(t.graph, keys);
  const std::vector<topology::AsId> path{t.H, t.D, t.A, t.B, t.E, t.I};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.forward(pan::issue_path(keys, path)));
  }
}
BENCHMARK(BM_IssueAndForward);

void BM_EventEngine(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.schedule(static_cast<double>((i * 7919) % 1000),
                      [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventEngine)->Unit(benchmark::kMillisecond);

void BM_ValleyFreeEnumeration(benchmark::State& state) {
  const auto t = topology::make_fig1();
  // Compile once outside the loop: the Graph overload is a convenience
  // adapter that would rebuild the snapshot per call.
  const topology::CompiledTopology compiled(t.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bgp::enumerate_valley_free_paths(compiled, t.H, t.I, 6));
  }
}
BENCHMARK(BM_ValleyFreeEnumeration);

void BM_BoscoBestResponse(benchmark::State& state) {
  const bosco::UniformDistribution dist(-1.0, 1.0);
  util::Rng rng(1);
  const auto w = static_cast<std::size_t>(state.range(0));
  const auto vx = bosco::ChoiceSet::random(dist, w, rng);
  const auto vy = bosco::ChoiceSet::random(dist, w, rng);
  const auto sy = bosco::Strategy::quantizer(vy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bosco::best_response_to(vx, vy, sy, dist));
  }
}
BENCHMARK(BM_BoscoBestResponse)->Arg(20)->Arg(60);

void BM_BoscoEquilibrium(benchmark::State& state) {
  const bosco::UniformDistribution dist(-1.0, 1.0);
  util::Rng rng(2);
  const auto w = static_cast<std::size_t>(state.range(0));
  const auto vx = bosco::ChoiceSet::random(dist, w, rng);
  const auto vy = bosco::ChoiceSet::random(dist, w, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bosco::find_equilibrium(vx, vy, dist, dist));
  }
}
BENCHMARK(BM_BoscoEquilibrium)->Arg(20)->Arg(60);

// ---------------------------------------- scenario sweep before/after pair
//
// The acceptance workload of the scenario engine: 100 single-MA-deployment
// deltas on the 3000-AS topology, 500 sampled sources, identical per-source
// work (materialized §VI length-3 path sets) on both sides. The baseline
// recompiles and recomputes everything per scenario; the incremental side
// pays one prime, then per scenario only the sources inside the
// deployment's invalidation ball. Results are byte-identical (asserted by
// scenario_test, summed into the same checksum here).

const std::vector<topology::AsId>& sweep_sources() {
  static const std::vector<topology::AsId> sources =
      diversity::sample_sources(cached_topology().graph, 500, 7);
  return sources;
}

const std::vector<scenario::Delta>& sweep_deltas() {
  static const std::vector<scenario::Delta> deltas =
      scenario::candidate_peering_deltas(cached_compiled(), 100, 4242);
  return deltas;
}

std::size_t path_set_checksum(const scenario::SourcePathSet& sets) {
  return sets.grc().size() + 3 * sets.ma().size();
}

void BM_ScenarioSweep_FullRecompute(benchmark::State& state) {
  const topology::Graph& base = cached_topology().graph;
  const auto& sources = sweep_sources();
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::size_t checksum = 0;
  for (auto _ : state) {
    checksum = 0;
    for (const scenario::Delta& delta : sweep_deltas()) {
      topology::Graph mutated = base;
      for (const scenario::LinkChange& change : delta.add) {
        if (change.type == topology::LinkType::kPeering) {
          mutated.add_peering(change.a, change.b);
        } else {
          mutated.add_provider_customer(change.a, change.b);
        }
      }
      const topology::CompiledTopology recompiled(mutated);
      const scenario::Overlay none(recompiled);
      const auto results = paths::map_sources(
          sources, threads, [&](topology::AsId src) {
            return scenario::enumerate_length3(none, src);
          });
      for (const scenario::SourcePathSet& sets : results) {
        checksum += path_set_checksum(sets);
      }
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * sweep_deltas().size());
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_ScenarioSweep_FullRecompute)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioSweep_Incremental(benchmark::State& state) {
  const auto& sources = sweep_sources();
  scenario::SweepConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.dirty_radius = scenario::kLength3DirtyRadius;
  const auto enumerate = [](const scenario::Overlay& overlay,
                            topology::AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  std::size_t checksum = 0;
  double recomputed = 0.0;
  for (auto _ : state) {
    checksum = 0;
    recomputed = 0.0;
    // Prime is *inside* the timing: the comparison is end-to-end cost of
    // answering 100 what-ifs, not just the marginal scenario.
    scenario::SweepRunner<scenario::SourcePathSet> runner(cached_compiled(),
                                                          sources, config);
    runner.prime(enumerate);
    for (const scenario::Delta& delta : sweep_deltas()) {
      scenario::SweepStats stats;
      runner.evaluate_visit(
          delta, enumerate,
          [&](std::size_t, const scenario::SourcePathSet& sets) {
            checksum += path_set_checksum(sets);
          },
          &stats);
      recomputed += static_cast<double>(stats.recomputed_sources);
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * sweep_deltas().size());
  state.counters["checksum"] = static_cast<double>(checksum);
  state.counters["recomputed_sources_per_scenario"] =
      recomputed / static_cast<double>(sweep_deltas().size());
}
BENCHMARK(BM_ScenarioSweep_Incremental)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- convergence dynamics pair
//
// BM_Convergence_Fixpoint is the raw engine: synchronous best-route
// rounds to fixpoint for a fixed destination sample on the 3000-AS
// topology. BM_Convergence_FailureSweep is the --failures workload unit:
// one candidate deployment re-evaluated under 8 single-link failure
// sets through a primed incremental sweep (prime and the state's
// per-source counts outside the timing loop; the per-set cost is the
// invalidation ball, not the topology).

void BM_Convergence_Fixpoint(benchmark::State& state) {
  const auto& compiled = cached_compiled();
  const std::vector<topology::AsId> dests(sweep_sources().begin(),
                                          sweep_sources().begin() + 4);
  dynamics::ConvergenceEngine engine;
  std::size_t checksum = 0;
  for (auto _ : state) {
    checksum = 0;
    for (const topology::AsId dest : dests) {
      const dynamics::ConvergenceResult result =
          engine.converge(compiled, dest);
      checksum += result.rounds + result.reachable;
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * dests.size());
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_Convergence_Fixpoint)->Unit(benchmark::kMillisecond);

void BM_Convergence_FailureSweep(benchmark::State& state) {
  const auto& compiled = cached_compiled();
  scenario::SweepConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.dirty_radius = scenario::kLength3DirtyRadius;
  const auto enumerate = [](const scenario::Overlay& overlay,
                            topology::AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  scenario::SweepRunner<scenario::SourcePathSet> runner(compiled,
                                                        sweep_sources(),
                                                        config);
  runner.prime(enumerate);
  const scenario::FailureSets failures =
      scenario::failure_sets(compiled, 1, 8, 1234);
  const scenario::Delta& candidate = sweep_deltas().front();
  const scenario::SliceSum<scenario::DiversityCounts> counts =
      scenario::diversity_counts(runner);
  std::size_t checksum = 0;
  for (auto _ : state) {
    const scenario::FailureDiversity fd = scenario::failure_diversity(
        runner, counts, candidate, failures.sets);
    checksum = fd.min.total_paths() + fd.worst_set;
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * failures.sets.size());
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_Convergence_FailureSweep)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------ deployment optimizer pair
//
// The acceptance workload of the optimizer: pick a 4-step deployment
// program out of 64 candidate peerings on the 3000-AS topology, 500
// sampled sources. The exhaustive baseline is the pre-optimizer way to
// rank one round: every candidate pays a full per-source enumeration
// (no invalidation-ball caching). The greedy side runs scenario::Optimizer
// with the shared dirty-set cache: one prime, then per candidate per
// round only the sources inside its invalidation ball - and cached
// candidate slices survive rounds whose committed step lands elsewhere.
// Both report the round-1 winner as a counter; the tentpole property
// (optimizer output byte-identical to full recompute) makes them agree.

const std::vector<scenario::Delta>& optimizer_candidates() {
  static const std::vector<scenario::Delta> candidates =
      scenario::candidate_peering_deltas(cached_compiled(), 64, 333);
  return candidates;
}

const econ::Economy& cached_economy() {
  static const econ::Economy economy =
      econ::make_default_economy(cached_topology().graph);
  return economy;
}

void BM_Optimizer_Exhaustive(benchmark::State& state) {
  const auto& compiled = cached_compiled();
  const auto& sources = sweep_sources();
  const auto& candidates = optimizer_candidates();
  const scenario::MetricsAggregator aggregator(
      compiled, &cached_topology().world, &cached_economy());
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::size_t top_candidate = 0;
  for (auto _ : state) {
    const benchcfg::ExhaustiveRank ranked = benchcfg::exhaustive_rank(
        compiled, sources, candidates, aggregator, threads);
    top_candidate = ranked.best_candidate;
    benchmark::DoNotOptimize(top_candidate);
  }
  state.SetItemsProcessed(state.iterations() * candidates.size());
  state.counters["top_candidate"] = static_cast<double>(top_candidate);
}
BENCHMARK(BM_Optimizer_Exhaustive)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Optimizer_Greedy(benchmark::State& state) {
  const auto& compiled = cached_compiled();
  const auto& candidates = optimizer_candidates();
  const scenario::MetricsAggregator aggregator(
      compiled, &cached_topology().world, &cached_economy());
  scenario::OptimizerConfig config;
  config.max_steps = 4;
  config.sweep.threads = static_cast<std::size_t>(state.range(0));
  config.sweep.dirty_radius = scenario::kLength3DirtyRadius;
  const scenario::Optimizer optimizer(compiled, sweep_sources(), aggregator,
                                      config);
  scenario::OptimizerResult result;
  for (auto _ : state) {
    result = optimizer.run(candidates);
    benchmark::DoNotOptimize(result.steps.size());
  }
  state.SetItemsProcessed(state.iterations() * candidates.size());
  if (!result.steps.empty()) {
    state.counters["top_candidate"] =
        static_cast<double>(result.steps.front().candidate);
  }
  state.counters["program_steps"] =
      static_cast<double>(result.steps.size());
  state.counters["reused_evaluations"] =
      static_cast<double>(result.stats.reused_evaluations);
  state.counters["recomputed_sources"] =
      static_cast<double>(result.stats.recomputed_sources);
}
BENCHMARK(BM_Optimizer_Greedy)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------- snapshot storage pair
//
// Startup-cost pair of the storage layer (ISSUE: >= 10x at the 3000-AS
// fixture). BM_SnapshotLoad_EmbedRecompile is the status-quo startup every
// tool paid per invocation before .pansnap files: embed the bare
// relationship graph into a synthetic world (RNG-driven PoP/centroid/
// facility assignment - the expensive part) and compile the CSR snapshot.
// BM_SnapshotLoad_Mmap maps the compiled snapshot instead: header/section
// validation, Graph/World materialization, and a zero-copy borrow of the
// CSR arrays. Only the Mmap side runs in the pinned bench suite; the
// baseline exists to keep the speedup measured, not asserted.

const std::string& snapshot_fixture() {
  static const std::string path = [] {
    const std::string file = (std::filesystem::temp_directory_path() /
                              "panagree_perf_micro.pansnap")
                                 .string();
    storage::write_snapshot(file, cached_topology(), cached_compiled());
    return file;
  }();
  return path;
}

void BM_SnapshotLoad_Mmap(benchmark::State& state) {
  const std::string& path = snapshot_fixture();
  std::size_t checksum = 0;
  for (auto _ : state) {
    const storage::MappedSnapshot snapshot =
        storage::MappedSnapshot::open(path);
    checksum = snapshot.topology().num_links() +
               snapshot.graph().num_ases() +
               snapshot.world().cities().size();
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          cached_topology().graph.num_links());
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_SnapshotLoad_Mmap)->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad_EmbedRecompile(benchmark::State& state) {
  const topology::Graph& base = cached_topology().graph;
  std::size_t checksum = 0;
  for (auto _ : state) {
    // embed consumes its graph, so the copy is part of the startup cost
    // being measured (a real run would pay the caida::parse instead);
    // capacity assignment is included because the pre-snapshot startup
    // (benchcfg::make_internet) always ran it and the snapshot stores
    // capacities instead.
    topology::GeneratedTopology embedded =
        topology::embed_relationship_graph(topology::Graph(base), 99);
    topology::assign_degree_gravity_capacities(embedded.graph);
    const topology::CompiledTopology compiled(embedded.graph);
    checksum = compiled.num_links() + embedded.graph.num_ases() +
               embedded.world.cities().size();
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * base.num_links());
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_SnapshotLoad_EmbedRecompile)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- serving engine trio
//
// The acceptance workload of the serving layer: a primed
// serve::QueryEngine over the 3000-AS fixture and the shared 500-source
// sample. CachedSource measures the request fast path (sampled source
// served zero-copy: the cached SourcePathSet itself goes to the sink -
// this is what the pinned bench suite gates; `cache_bytes` is the summed
// heap_bytes() of the cached sets, the engine.path_cache_bytes gauge, a
// fingerprint of the cache layout); ColdSource the on-the-fly
// enumeration of an unsampled source; WhatIfBatched/T the incremental
// what-if scoring of 100 candidate deployments on an engine with T
// threads, which spread each what-if's dirty sources (memo flushed per
// batch, so the invalidation-ball evaluation is measured, not the memo
// hit);
// utility_sum is the same at every T (the byte-identity fingerprint).
// WhatIfFullRecompute is the preserved per-request baseline - every
// request re-enumerates all 500 sources over its overlay - that the
// serving layer's >= 5x acceptance ratio is measured against; like the
// other *_FullRecompute ablations it stays out of the pinned suite.

/// One primed engine per thread count (0 = one per allowed cpu).
serve::QueryEngine& cached_engine(std::size_t threads = 0) {
  // Leaked on purpose: the engine is not movable (shared mutex) and
  // static-destruction order vs the other cached fixtures is moot for a
  // bench binary.
  static std::map<std::size_t, serve::QueryEngine*> engines;
  serve::QueryEngine*& engine = engines[threads];
  if (engine == nullptr) {
    serve::EngineConfig config;
    config.threads = threads;
    engine =
        new serve::QueryEngine(cached_compiled(), &cached_topology().world,
                               &cached_economy(), sweep_sources(), config);
    engine->prime();
  }
  return *engine;
}

void BM_QueryEngine_CachedSource(benchmark::State& state) {
  const serve::QueryEngine& engine = cached_engine();
  const auto& sources = sweep_sources();
  // 1024 requests per iteration: a single cache-served request is tens
  // of nanoseconds, below the regression checker's noise floor - the
  // batch keeps this entry comparable in the pinned suite.
  constexpr std::size_t kBatch = 1024;
  std::size_t checksum = 0;
  for (auto _ : state) {
    // Reset per iteration like the other checksum benches: the counter
    // is a cross-run correctness fingerprint, so it must not depend on
    // how many iterations the runner picks.
    checksum = 0;
    for (std::size_t r = 0; r < kBatch; ++r) {
      engine.paths(sources[r % sources.size()],
                   [&](const scenario::SourcePathSet& sets) {
                     checksum += sets.grc().size() + 3 * sets.ma().size();
                   });
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["checksum"] = static_cast<double>(checksum);
  std::size_t cache_bytes = 0;
  for (const topology::AsId src : sources) {
    engine.paths(src, [&](const scenario::SourcePathSet& sets) {
      cache_bytes += sets.heap_bytes();
    });
  }
  state.counters["cache_bytes"] = static_cast<double>(cache_bytes);
}
BENCHMARK(BM_QueryEngine_CachedSource);

void BM_QueryEngine_ColdSource(benchmark::State& state) {
  const serve::QueryEngine& engine = cached_engine();
  // The unsampled sources - every query pays a fresh enumeration.
  std::vector<topology::AsId> cold;
  {
    const auto& sources = sweep_sources();
    const std::unordered_set<topology::AsId> sampled(sources.begin(),
                                                     sources.end());
    const auto n =
        static_cast<topology::AsId>(cached_topology().graph.num_ases());
    for (topology::AsId as = 0; as < n; ++as) {
      if (!sampled.contains(as)) {
        cold.push_back(as);
      }
    }
  }
  // A fixed batch of cold sources spread evenly over the unsampled ids,
  // the same every iteration: the checksum is summed over the batch and
  // reset per iteration, so it is a fingerprint independent of how many
  // iterations the runner picks (like CachedSource's).
  constexpr std::size_t kBatch = 32;
  std::vector<topology::AsId> batch;
  for (std::size_t r = 0; r < kBatch; ++r) {
    batch.push_back(cold[r * cold.size() / kBatch]);
  }
  std::size_t checksum = 0;
  for (auto _ : state) {
    checksum = 0;
    for (const topology::AsId src : batch) {
      engine.paths(src, [&](const scenario::SourcePathSet& sets) {
        checksum += sets.grc().size() + 3 * sets.ma().size();
      });
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_QueryEngine_ColdSource);

void BM_QueryEngine_WhatIfBatched(benchmark::State& state) {
  const serve::QueryEngine& engine =
      cached_engine(static_cast<std::size_t>(state.range(0)));
  const auto& deltas = sweep_deltas();
  double utility_sum = 0.0;
  double recomputed = 0.0;
  for (auto _ : state) {
    engine.flush_whatif_memo();
    utility_sum = 0.0;
    recomputed = 0.0;
    for (const scenario::Delta& delta : deltas) {
      const serve::WhatIfResult result = engine.whatif(delta);
      utility_sum += result.utility;
      recomputed += static_cast<double>(result.recomputed_sources);
    }
    benchmark::DoNotOptimize(utility_sum);
  }
  state.SetItemsProcessed(state.iterations() * deltas.size());
  state.counters["utility_sum"] = utility_sum;
  state.counters["recomputed_sources_per_request"] =
      recomputed / static_cast<double>(deltas.size());
}
BENCHMARK(BM_QueryEngine_WhatIfBatched)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_QueryEngine_WhatIfFullRecompute(benchmark::State& state) {
  // The pre-serving way to answer one what-if request: enumerate every
  // sampled source over the request's overlay and aggregate from
  // scratch, serially like a request handler would. 8 requests per
  // iteration keep the ablation affordable; items normalize the rate.
  const auto& compiled = cached_compiled();
  const auto& sources = sweep_sources();
  const scenario::MetricsAggregator aggregator(
      compiled, &cached_topology().world, &cached_economy());
  const scenario::Overlay base(compiled);
  const scenario::ScenarioMetrics baseline = [&] {
    std::vector<scenario::SourcePathSet> results;
    results.reserve(sources.size());
    for (const topology::AsId src : sources) {
      results.push_back(scenario::enumerate_length3(base, src));
    }
    return aggregator.aggregate(base, sources, results);
  }();
  const auto& deltas = sweep_deltas();
  const std::size_t requests = std::min<std::size_t>(8, deltas.size());
  double utility_sum = 0.0;
  for (auto _ : state) {
    utility_sum = 0.0;
    for (std::size_t i = 0; i < requests; ++i) {
      scenario::Overlay overlay(compiled);
      overlay.apply(deltas[i]);
      std::vector<scenario::SourcePathSet> results;
      results.reserve(sources.size());
      for (const topology::AsId src : sources) {
        results.push_back(scenario::enumerate_length3(overlay, src));
      }
      const scenario::MetricsDelta marginal = scenario::subtract(
          aggregator.aggregate(overlay, sources, results), baseline);
      utility_sum += scenario::operator_utility(marginal);
    }
    benchmark::DoNotOptimize(utility_sum);
  }
  state.SetItemsProcessed(state.iterations() * requests);
  state.counters["utility_sum"] = utility_sum;
}
BENCHMARK(BM_QueryEngine_WhatIfFullRecompute)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- contribution kernel
//
// MetricsAggregator::contribution alone: the serial fold of the 500
// primed sources' path sets over the base overlay with one Scratch -
// the kernel a daemon's cold start, every rebase and every what-if run.
// `paths` is the folded path count; `km_fee_sum` (sum of every source's
// km_sum + transit_fees, printed to 17 significant digits in the JSON)
// is the bit-identity fingerprint: any change to the kernel must keep
// both counters exactly.

const std::vector<scenario::SourcePathSet>& primed_path_sets() {
  static const std::vector<scenario::SourcePathSet> sets = [] {
    scenario::SweepConfig config;
    config.dirty_radius = scenario::kLength3DirtyRadius;
    scenario::SweepRunner<scenario::SourcePathSet> runner(
        cached_compiled(), sweep_sources(), config);
    runner.prime([](const scenario::Overlay& overlay, topology::AsId src) {
      return scenario::enumerate_length3(overlay, src);
    });
    return runner.baseline();
  }();
  return sets;
}

void BM_Metrics_Contribution(benchmark::State& state) {
  const scenario::MetricsAggregator aggregator(
      cached_compiled(), &cached_topology().world, &cached_economy());
  const scenario::Overlay base(cached_compiled());
  const std::vector<scenario::SourcePathSet>& sets = primed_path_sets();
  scenario::MetricsAggregator::Scratch scratch;
  std::size_t paths = 0;
  double km_fee_sum = 0.0;
  for (auto _ : state) {
    paths = 0;
    km_fee_sum = 0.0;
    for (const scenario::SourcePathSet& set : sets) {
      const scenario::SourceContribution contribution =
          aggregator.contribution(base, set, scratch);
      paths += set.grc().size() + set.ma().size();
      km_fee_sum += contribution.km_sum + contribution.transit_fees;
    }
    benchmark::DoNotOptimize(km_fee_sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths));
  state.counters["paths"] = static_cast<double>(paths);
  state.counters["km_fee_sum"] = km_fee_sum;
}
BENCHMARK(BM_Metrics_Contribution)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- paths serializer
//
// serve::append_paths_response of one cached source, read straight from
// its SourcePathSet: the median-size and the largest of the 500 primed
// sources (by path count, ties to the earlier source). The buffer keeps
// its capacity across iterations, so the row times the writer, not the
// allocator. `response_bytes` is the exact response length, a
// fingerprint of the wire bytes.

void BM_Wire_PathsSerialize(benchmark::State& state, bool largest) {
  const std::vector<scenario::SourcePathSet>& sets = primed_path_sets();
  std::vector<std::size_t> order(sets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, {}, [&](std::size_t i) {
    return sets[i].grc().size() + sets[i].ma().size();
  });
  const scenario::SourcePathSet& set =
      sets[largest ? order.back() : order[order.size() / 2]];
  std::string out;
  for (auto _ : state) {
    out.clear();
    serve::append_paths_response(out, 1, set.source(), set);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
  state.counters["response_bytes"] = static_cast<double>(out.size());
}
BENCHMARK_CAPTURE(BM_Wire_PathsSerialize, median, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Wire_PathsSerialize, largest, true)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------- parallel driver
//
// The scheduling-overhead workload of the parallel driver: 2^18 items
// that each take nanoseconds, heavy-tailed the way per-source costs are
// on a real AS topology (every 512th item spins ~256x longer). What the
// row measures is claim overhead: the guided cursor takes one CAS per
// shrinking chunk, so the whole set costs a few hundred claims. The
// checksum counter is the byte-identity fingerprint and must not move.

constexpr std::size_t kDriverItems = 1 << 18;

std::uint64_t driver_item_work(std::size_t i) {
  const std::size_t spins = (i % 512) == 0 ? 256 : 1;
  std::uint64_t acc = i;
  for (std::size_t s = 0; s < spins; ++s) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc;
}

void BM_MapSources(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t checksum = 0;
  for (auto _ : state) {
    checksum = 0;
    for (const std::uint64_t r :
         paths::map_indices(kDriverItems, threads, driver_item_work)) {
      checksum += r;
    }
    benchmark::DoNotOptimize(checksum);
  }
  state.SetItemsProcessed(state.iterations() * kDriverItems);
  state.counters["checksum"] = static_cast<double>(checksum);
}
BENCHMARK(BM_MapSources)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- obs record overhead
//
// The cost instrumented hot paths pay per record: one sharded relaxed
// fetch_add for a counter, two for a histogram. These are the numbers
// that justify leaving obs on in production builds - the regression gate
// keeps them in the single-digit-nanosecond range. Under
// PANAGREE_OBS_OFF both loops measure an empty body.

void BM_Obs_CounterHot(benchmark::State& state) {
  obs::Counter& counter =
      obs::Registry::global().counter("bench.obs_counter_hot");
  for (auto _ : state) {
    counter.increment();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Obs_CounterHot);

void BM_Obs_HistogramRecord(benchmark::State& state) {
  obs::Histogram& histogram =
      obs::Registry::global().histogram("bench.obs_histogram_record");
  std::uint64_t value = 0;
  for (auto _ : state) {
    histogram.record(value);
    value = (value + 997) % 100000;  // spread across buckets
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Obs_HistogramRecord);

void BM_Obs_SlowlogRecord(benchmark::State& state) {
  // Worst case for the slow-query ring's writer: threshold 0 (every
  // record admitted) and strictly ascending wall times, so once the 64
  // slots fill, every record scans all slots and evicts the minimum.
  obs::SlowQueryLog log(obs::kDefaultSlowLogSlots);
  log.set_threshold_ns(0);
  obs::SlowQueryRecord rec;
  for (auto _ : state) {
    ++rec.wall_ns;
    log.record(rec);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["captured"] = static_cast<double>(log.snapshot().size());
}
BENCHMARK(BM_Obs_SlowlogRecord);

void BM_Serve_StageClockOverhead(benchmark::State& state) {
  // What one fully observed request costs on top of the work itself: the
  // cache-served fast path through handle_line with an external stage
  // clock, plus finish_request_observation (8 histogram records, a
  // slowlog offer, and - tracing disarmed here - no span recording).
  // Compare against BM_QueryEngine_CachedSource/1024 for the
  // uninstrumented floor of the same request.
  serve::QueryEngine& engine = cached_engine();
  const auto& sources = sweep_sources();
  const std::string line_prefix = R"({"v":1,"id":1,"kind":"paths","source":)";
  std::vector<std::string> lines;
  lines.reserve(sources.size());
  for (const topology::AsId src : sources) {
    lines.push_back(line_prefix + std::to_string(src) + "}");
  }
  std::string out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    serve::RequestStages stages;
    stages.enqueue_ns = serve::stage_now_ns();
    engine.handle_line(lines[i % lines.size()], out, &stages);
    stages.send_ns = 1;  // stand in for the server's send stage
    serve::finish_request_observation(stages);
    ++i;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Serve_StageClockOverhead);

void BM_BoscoExpectedNash(benchmark::State& state) {
  const bosco::UniformDistribution dist(-1.0, 1.0);
  util::Rng rng(3);
  const auto vx = bosco::ChoiceSet::random(dist, 40, rng);
  const auto vy = bosco::ChoiceSet::random(dist, 40, rng);
  const auto eq = bosco::find_equilibrium(vx, vy, dist, dist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bosco::expected_nash_product(vx, vy, eq.x, eq.y, dist, dist));
  }
}
BENCHMARK(BM_BoscoExpectedNash);

}  // namespace

// google-benchmark's main plus a default machine-readable results file:
// unless the caller passes --benchmark_out themselves, results land in
// BENCH_perf_micro.json (json format) alongside the console table, so the
// perf trajectory is diffable across PRs.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Same default output directory override the plain-main benches honor
  // (bench_json.hpp), so one env var collects every BENCH_*.json.
  std::string out_dir = ".";
  if (const char* env = std::getenv("PANAGREE_BENCH_JSON_DIR")) {
    if (*env != '\0') {
      out_dir = env;
    }
  }
  std::string out_flag =
      "--benchmark_out=" + out_dir + "/BENCH_perf_micro.json";
  std::string format_flag = "--benchmark_out_format=json";
  // Match the out flag itself, not --benchmark_out_format (a lone format
  // flag must not suppress the default results file - nor be overridden
  // by the appended default, since last flag wins).
  const bool has_out =
      std::any_of(args.begin(), args.end(), [](const char* arg) {
        return std::strncmp(arg, "--benchmark_out=", 16) == 0 ||
               std::strcmp(arg, "--benchmark_out") == 0;
      });
  const bool has_format =
      std::any_of(args.begin(), args.end(), [](const char* arg) {
        return std::strncmp(arg, "--benchmark_out_format", 22) == 0;
      });
  if (!has_out) {
    args.push_back(out_flag.data());
  }
  if (!has_out && !has_format) {
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  // After flag handling (--help exits inside Initialize) and only for
  // real runs: a --benchmark_list_tests listing must not pay the 3000-AS
  // fixture generation just to annotate the context.
  const bool list_only =
      std::any_of(args.begin(), args.end(), [](const char* arg) {
        return std::strncmp(arg, "--benchmark_list_tests", 22) == 0;
      });
  // google-benchmark's own "library_build_type" describes the benchmark
  // library, not panagree: record panagree's build and the cpus this
  // process may run on beside it.
  benchmark::AddCustomContext("host_nproc",
                              std::to_string(paths::resolve_thread_count(0)));
  benchmark::AddCustomContext(
      "host_build_type", std::string(obs::build_info().build_type));
  if (!list_only) {
    benchmark::AddCustomContext(
        "topology_ases", std::to_string(cached_topology().graph.num_ases()));
    benchmark::AddCustomContext(
        "topology_links",
        std::to_string(cached_topology().graph.num_links()));
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
