// panagree-diversity: the §VI path-diversity analysis over an arbitrary
// as-rel2 relationship file (e.g. the real CAIDA dataset) or a freshly
// generated synthetic topology.
//
//   panagree-diversity <as-rel2-file> [sources] [seed] [--threads N]
//   panagree-diversity --synthetic <num_ases> [sources] [seed]
//   panagree-diversity --snapshot <file.pansnap> [sources] [seed]
//
// --threads (anywhere on the line) sets the per-source fan-out worker
// count, 0 = one per cpu the process may run on; results are
// thread-count independent. Malformed numbers exit 2 and name the
// argument.
//
// --snapshot mmaps a compiled topology snapshot (see panagree-compile)
// instead of re-parsing an as-rel2 file - the startup path for repeated
// analyses of CAIDA-scale graphs.
//
// Prints the Figure 3/4 scenario statistics and the §VI-A aggregates.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/storage/snapshot.hpp"
#include "panagree/topology/caida.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/table.hpp"

using namespace panagree;

namespace {

constexpr const char* kTool = "panagree-diversity";

}  // namespace

int main(int raw_argc, char** raw_argv) {
  // --threads may appear anywhere; strip it before the positional logic.
  std::size_t threads = 0;
  std::vector<char*> args;
  args.push_back(raw_argv[0]);
  for (int i = 1; i < raw_argc; ++i) {
    const std::string flag = raw_argv[i];
    if (flag == "--version") {
      cli::print_version(kTool);
    } else if (flag == "--threads") {
      threads = cli::parse_threads(kTool, raw_argc, raw_argv, i);
    } else if (flag.rfind("--", 0) == 0 && flag != "--synthetic" &&
               flag != "--snapshot") {
      std::cerr << kTool << ": unknown option " << flag << "\n";
      return cli::kUsageExit;
    } else {
      args.push_back(raw_argv[i]);
    }
  }
  cli::init_tracing();
  const int argc = static_cast<int>(args.size());
  char** argv = args.data();
  if (argc < 2) {
    std::cerr << "usage: panagree-diversity <as-rel2-file> [sources] [seed]"
                 " [--threads N]\n"
              << "       panagree-diversity --synthetic <num_ases> [sources] "
                 "[seed]\n"
              << "       panagree-diversity --snapshot <file.pansnap> "
                 "[sources] [seed]\n";
    return 2;
  }
  // Every number is validated before any topology is loaded.
  const std::string input = argv[1];
  const bool synthetic = input == "--synthetic";
  const bool named_input = synthetic || input == "--snapshot";
  if (named_input && argc < 3) {
    std::cerr << input << " requires "
              << (synthetic ? "a size" : "a file") << " argument\n";
    return cli::kUsageExit;
  }
  const std::size_t num_ases =
      synthetic ? cli::parse_size(kTool, input, argv[2]) : 0;
  const int arg = named_input ? 3 : 2;
  diversity::DiversityParams params;
  params.sample_sources =
      argc > arg ? cli::parse_size(kTool, "sources", argv[arg]) : 500;
  params.seed =
      argc > arg + 1 ? cli::parse_size(kTool, "seed", argv[arg + 1]) : 7;
  params.threads = threads;
  try {
    topology::Graph owned;
    std::optional<storage::MappedSnapshot> snapshot;
    if (synthetic) {
      topology::GeneratorParams generator;
      generator.num_ases = num_ases;
      generator.seed = 424242;
      owned = topology::generate_internet(generator).graph;
    } else if (named_input) {
      snapshot.emplace(storage::MappedSnapshot::open(argv[2]));
    } else {
      owned = topology::caida::parse_file(argv[1]).graph;
    }
    const topology::Graph& graph = snapshot ? snapshot->graph() : owned;

    std::cerr << "topology: " << graph.num_ases() << " ASes, "
              << graph.num_links() << " links; analyzing "
              << params.sample_sources << " sources\n";
    const auto report = diversity::analyze_path_diversity(graph, params);

    util::Table table({"series", "mean paths", "median paths", "max paths",
                       "mean dests", "median dests"});
    const auto summarize_pair = [&](const char* name, auto path_of,
                                    auto dest_of) {
      std::vector<double> paths, dests;
      for (std::size_t i = 0; i < report.path_rows.size(); ++i) {
        paths.push_back(path_of(report.path_rows[i]));
        dests.push_back(dest_of(report.dest_rows[i]));
      }
      const auto ps = util::summarize(paths);
      const auto ds = util::summarize(dests);
      table.add_row({name, util::format_double(ps.mean, 1),
                     util::format_double(ps.median, 1),
                     util::format_double(ps.max, 0),
                     util::format_double(ds.mean, 1),
                     util::format_double(ds.median, 1)});
    };
    using Row = diversity::ScenarioRow;
    summarize_pair(
        "GRC", [](const Row& r) { return r.grc; },
        [](const Row& r) { return r.grc; });
    summarize_pair(
        "MA* (Top 1)", [](const Row& r) { return r.ma_top[0]; },
        [](const Row& r) { return r.ma_top[0]; });
    summarize_pair(
        "MA* (Top 5)", [](const Row& r) { return r.ma_top[1]; },
        [](const Row& r) { return r.ma_top[1]; });
    summarize_pair(
        "MA*", [](const Row& r) { return r.ma_star; },
        [](const Row& r) { return r.ma_star; });
    summarize_pair(
        "MA", [](const Row& r) { return r.ma_all; },
        [](const Row& r) { return r.ma_all; });
    table.print(std::cout);

    std::cout << "\nadditional MA paths per AS:        mean "
              << report.additional_paths.mean << ", max "
              << report.additional_paths.max
              << "\nadditional destinations per AS:    mean "
              << report.additional_dests.mean << ", max "
              << report.additional_dests.max << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
