// panagree-compile: turn a topology into a memory-mappable .pansnap
// snapshot - the one-time startup cost every later tool and bench skips.
//
//   panagree-compile <out.pansnap> [--caida FILE | --synthetic N]
//       [--seed S]
//
// Input selection mirrors bench_common: an explicit --caida/--synthetic
// flag wins; otherwise PANAGREE_CAIDA (or the synthetic generator at
// PANAGREE_ASES) decides, so `panagree-compile out.pansnap` freezes
// exactly the topology the benches would build themselves. The graph is
// embedded in the synthetic world (tiers, PoPs, facilities), degree-gravity
// capacities are assigned, the CSR snapshot is compiled, and everything is
// written as one versioned binary file. Consumers mmap it back with
// --snapshot FILE or PANAGREE_SNAPSHOT=FILE.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "cli_common.hpp"
#include "panagree/storage/snapshot.hpp"

using namespace panagree;

namespace {

constexpr const char* kTool = "panagree-compile";

void usage() {
  std::cerr << "usage: panagree-compile <out.pansnap>"
               " [--caida FILE | --synthetic N] [--seed S]\n"
               "       panagree-compile --verify <file.pansnap>\n";
}

/// --verify: open an existing snapshot, validate it, and report what the
/// reader did - including the effective mmap access-pattern advice
/// (WILLNEED on the CSR sections).
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
  std::uint64_t seed = benchcfg::kTopologySeed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      cli::print_version(kTool);
    } else if (arg == "--verify") {
      verify = cli::require_value(kTool, arg, argc, argv, i);
    } else if (arg == "--caida") {
      caida = cli::require_value(kTool, arg, argc, argv, i);
    } else if (arg == "--synthetic") {
      synthetic = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--seed") {
      seed = cli::parse_size(kTool, arg,
                             cli::require_value(kTool, arg, argc, argv, i));
    } else if (output.empty() && !arg.starts_with("--")) {
      output = arg;
    } else {
      usage();
      return cli::kUsageExit;
    }
  }
  if (!verify.empty()) {
    if (!output.empty() || !caida.empty() || synthetic > 0) {
      usage();
      return cli::kUsageExit;
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
    return cli::kUsageExit;
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
    storage::write_snapshot(output, topo, compiled);
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
