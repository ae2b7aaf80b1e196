// panagree-compile: turn a topology into a memory-mappable .pansnap
// snapshot - the one-time startup cost every later tool and bench skips.
//
//   panagree-compile <out.pansnap> [--caida FILE | --synthetic N]
//       [--seed S] [--shards N] [--sources M]
//
// Input selection mirrors bench_common: an explicit --caida/--synthetic
// flag wins; otherwise PANAGREE_CAIDA (or the synthetic generator at
// PANAGREE_ASES) decides, so `panagree-compile out.pansnap` freezes
// exactly the topology the benches would build themselves. The graph is
// embedded in the synthetic world (tiers, PoPs, facilities), degree-gravity
// capacities are assigned, the CSR snapshot is compiled, and everything is
// written as one versioned binary file. Consumers mmap it back with
// --snapshot FILE or PANAGREE_SNAPSHOT=FILE.
//
// --shards N additionally writes the source-partitioned serving plan and
// the primed per-source baseline: the canonical source sample
// (--sources M, default the benches' PANAGREE_SOURCES, sampled with the
// shared seed) is cut into N contiguous ranges, and the length-3
// baseline of every source is enumerated here and persisted, so
// panagree-serve adopts it straight off the mapping instead of
// enumerating at every start (its contribution fold still runs there).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "cli_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/storage/snapshot.hpp"

using namespace panagree;

namespace {

void usage() {
  std::cerr << "usage: panagree-compile <out.pansnap>"
               " [--caida FILE | --synthetic N] [--seed S]\n"
               "           [--shards N] [--sources M]\n"
               "       panagree-compile --verify <file.pansnap>\n";
}

/// --shards: sample the canonical sources, enumerate every baseline
/// path set (exactly what QueryEngine::prime computes - the daemon
/// adopts these verbatim), and flatten them into the snapshot's shard
/// plan + primed-baseline sections.
storage::ShardPlanData make_shard_plan(const topology::GeneratedTopology& topo,
                                       const topology::CompiledTopology& compiled,
                                       std::size_t shards,
                                       std::size_t sources_n) {
  storage::ShardPlanData plan;
  plan.num_shards = shards;
  plan.sources = diversity::sample_sources(topo.graph, sources_n,
                                           benchcfg::kSampleSeed);
  const std::size_t n = plan.sources.size();
  util::require(shards <= std::max<std::size_t>(n, 1),
                "panagree-compile: more shards than sampled sources");
  plan.shard_begin.reserve(shards + 1);
  for (std::size_t s = 0; s <= shards; ++s) {
    plan.shard_begin.push_back(static_cast<std::uint32_t>(s * n / shards));
  }
  scenario::SweepConfig sweep_config;
  sweep_config.threads = benchcfg::num_threads();
  sweep_config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(compiled, plan.sources,
                                                        sweep_config);
  runner.prime([](const scenario::Overlay& overlay, topology::AsId src) {
    return scenario::enumerate_length3(overlay, src);
  });
  plan.grc_counts.reserve(n);
  plan.path_begin.reserve(n + 1);
  plan.path_begin.push_back(0);
  for (const scenario::SourcePathSet& set : runner.baseline()) {
    plan.grc_counts.push_back(static_cast<std::uint32_t>(set.grc().size()));
    plan.path_begin.push_back(
        plan.path_begin.back() +
        static_cast<std::uint32_t>(set.grc().size() + set.ma().size()));
    for (const auto paths : {set.grc(), set.ma()}) {
      for (const diversity::Length3Path& path : paths) {
        plan.path_words.push_back(path.src);
        plan.path_words.push_back(path.mid);
        plan.path_words.push_back(path.dst);
      }
    }
  }
  return plan;
}

/// --verify: open an existing snapshot, validate it, and report what the
/// reader did - including the effective mmap access-pattern advice
/// (WILLNEED on the CSR sections; THP when PANAGREE_MMAP_THP=1).
int verify_snapshot(const std::string& path) {
  const auto snapshot = storage::MappedSnapshot::open(path);
  std::cout << "[verify] " << path << ": " << snapshot.graph().num_ases()
            << " ASes, " << snapshot.graph().num_links() << " links, "
            << snapshot.world().cities().size() << " cities, "
            << snapshot.file_bytes() << " bytes\n"
            << "[verify] madvise: " << snapshot.advice().describe() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  std::string caida;
  std::string verify;
  std::size_t synthetic = 0;
  std::size_t shards = 0;
  std::size_t sources_n = benchcfg::num_sources();
  std::uint64_t seed = benchcfg::kTopologySeed;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--version") {
        cli::print_version("panagree-compile");
      } else if (arg == "--verify") {
        if (i + 1 >= argc) {
          usage();
          return 2;
        }
        verify = argv[++i];
      } else if (arg == "--caida") {
        if (i + 1 >= argc) {
          usage();
          return 2;
        }
        caida = argv[++i];
      } else if (arg == "--synthetic") {
        if (i + 1 >= argc) {
          usage();
          return 2;
        }
        synthetic = std::stoul(argv[++i]);
      } else if (arg == "--seed") {
        if (i + 1 >= argc) {
          usage();
          return 2;
        }
        seed = std::stoull(argv[++i]);
      } else if (arg == "--shards") {
        if (i + 1 >= argc) {
          usage();
          return 2;
        }
        shards = std::stoul(argv[++i]);
        if (shards == 0) {
          usage();
          return 2;
        }
      } else if (arg == "--sources") {
        if (i + 1 >= argc) {
          usage();
          return 2;
        }
        sources_n = std::stoul(argv[++i]);
      } else if (output.empty() && !arg.starts_with("--")) {
        output = arg;
      } else {
        usage();
        return 2;
      }
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  if (!verify.empty()) {
    if (!output.empty() || !caida.empty() || synthetic > 0) {
      usage();
      return 2;
    }
    try {
      return verify_snapshot(verify);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (output.empty()) {
    usage();
    return 2;
  }
  cli::init_tracing();

  try {
    const auto start = std::chrono::steady_clock::now();
    topology::GeneratedTopology topo;
    if (!caida.empty()) {
      auto dataset = topology::caida::parse_file(caida);
      topo = topology::embed_relationship_graph(std::move(dataset.graph),
                                                seed);
      std::cerr << "[compile] CAIDA " << caida << ": "
                << topo.graph.num_ases() << " ASes, "
                << topo.graph.num_links() << " links\n";
    } else if (synthetic > 0) {
      topology::GeneratorParams params = benchcfg::internet_params();
      params.num_ases = synthetic;
      params.seed = seed;
      topo = topology::generate_internet(params);
      std::cerr << "[compile] synthetic: " << topo.graph.num_ases()
                << " ASes, " << topo.graph.num_links() << " links (seed "
                << seed << ")\n";
    } else if (const char* env = benchcfg::caida_path()) {
      auto dataset = topology::caida::parse_file(env);
      topo = topology::embed_relationship_graph(std::move(dataset.graph),
                                                seed);
      std::cerr << "[compile] CAIDA " << env << " (PANAGREE_CAIDA): "
                << topo.graph.num_ases() << " ASes, "
                << topo.graph.num_links() << " links\n";
    } else {
      topology::GeneratorParams params = benchcfg::internet_params();
      params.seed = seed;
      topo = topology::generate_internet(params);
      std::cerr << "[compile] synthetic: " << topo.graph.num_ases()
                << " ASes, " << topo.graph.num_links() << " links (seed "
                << seed << ")\n";
    }
    topology::assign_degree_gravity_capacities(topo.graph);
    const topology::CompiledTopology compiled(topo.graph);
    std::optional<storage::ShardPlanData> plan;
    if (shards > 0) {
      plan = make_shard_plan(topo, compiled, shards, sources_n);
      std::cerr << "[compile] shard plan: " << shards << " shards over "
                << plan->sources.size() << " sources, "
                << plan->path_begin.back() << " baseline paths\n";
    }
    storage::write_snapshot(output, topo, compiled,
                            plan ? &*plan : nullptr);
    const double total_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

    // Verify the round trip before declaring success: the mmap'd view
    // must be byte-identical to the in-process compile.
    const auto snapshot = storage::MappedSnapshot::open(output);
    const bool identical =
        std::ranges::equal(snapshot.topology().row_start_array(),
                           compiled.row_start_array()) &&
        std::ranges::equal(snapshot.topology().entry_array(),
                           compiled.entry_array());
    if (!identical) {
      std::cerr << "[compile] round-trip verification FAILED\n";
      return 1;
    }
    std::cerr << "[compile] wrote " << output << ": "
              << snapshot.file_bytes() << " bytes in " << total_ms
              << " ms (round-trip verified; madvise: "
              << snapshot.advice().describe() << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
