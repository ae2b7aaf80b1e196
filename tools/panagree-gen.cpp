// panagree-gen: generate a synthetic Internet-like AS topology and export
// it in the CAIDA as-rel2 format.
//
//   panagree-gen [num_ases] [seed] [output-file]
//
// Defaults: 12000 ASes, seed 424242, stdout. A malformed number exits 2
// and names the argument. The exported file round-trips
// through topology::caida::parse (geolocation and capacities are derived
// attributes and not part of the as-rel2 format).
//
// With PANAGREE_CAIDA=<path> set (the shared bench/tool override from
// bench_common.hpp), the tool loads that as-rel2 file instead of
// generating: a parse -> re-serialize normalization pass that validates
// the dataset and renumbers ASNs into the dense ids every other panagree
// tool uses. num_ases/seed arguments are ignored in that mode.
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "bench_common.hpp"
#include "cli_common.hpp"
#include "panagree/topology/caida.hpp"
#include "panagree/topology/generator.hpp"

using namespace panagree;

namespace {

constexpr const char* kTool = "panagree-gen";

}  // namespace

int main(int argc, char** argv) {
  topology::GeneratorParams params;
  params.num_ases = 12000;
  params.tier1_count = 12;
  params.seed = 424242;
  std::string output;
  if (argc > 1 && std::string_view(argv[1]) == "--version") {
    cli::print_version(kTool);
  }
  cli::init_tracing();
  if (argc > 1) {
    params.num_ases = cli::parse_size(kTool, "num_ases", argv[1]);
  }
  if (argc > 2) {
    params.seed = cli::parse_size(kTool, "seed", argv[2]);
  }
  if (argc > 3) {
    output = argv[3];
  }

  try {
    topology::Graph graph;
    if (const char* path = benchcfg::caida_path()) {
      graph = topology::caida::parse_file(path).graph;
      std::cerr << "loaded CAIDA " << path << " (normalization pass; "
                << "num_ases/seed arguments ignored)\n";
    } else {
      const auto topo = topology::generate_internet(params);
      std::cerr << "generated " << topo.graph.num_ases() << " ASes with "
                << topo.ixps.size() << " IXPs, " << topo.hubs.size()
                << " open-peering hubs\n";
      graph = topo.graph;
    }
    std::size_t peerings = 0;
    for (const auto& link : graph.links()) {
      if (link.type == topology::LinkType::kPeering) {
        ++peerings;
      }
    }
    std::cerr << graph.num_ases() << " ASes, " << graph.num_links()
              << " links (" << peerings << " peering / "
              << graph.num_links() - peerings << " provider-customer)\n";
    if (output.empty()) {
      topology::caida::write(graph, std::cout);
    } else {
      std::ofstream out(output);
      if (!out) {
        std::cerr << "cannot open " << output << " for writing\n";
        return 1;
      }
      topology::caida::write(graph, out);
      std::cerr << "wrote " << output << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
