// panagree-sweep: rank candidate interconnection-agreement deployments by
// operator utility over an incremental what-if sweep (the §VIII outlook
// turned into a tool).
//
//   panagree-sweep [scenarios] [top-k] [seed]
//       [--optimize greedy|beam] [--steps N] [--beam W] [--no-share]
//       [--failures K | --fail-ases] [--samples N]
//       [--snapshot FILE] [--threads N]
//
// Defaults: 200 candidate deployments, top 10 shown, seed 4242. Every
// candidate is a single new peering link between two ASes that share a
// neighbor today (the "we already meet somewhere" pairs that dominate real
// peering candidacies). Each scenario is evaluated as a Delta over one
// shared CSR snapshot through scenario::SweepRunner - per-source §VI
// length-3 path sets are cached across scenarios and only sources inside
// a candidate's invalidation ball are recomputed - and scored the way the
// serving engine scores a what-if: the dirty sources' contributions are
// spliced into the cached ones (MetricsAggregator::whatif_total) and
// turned into path-diversity / geodistance / transit-fee deltas and a
// scalar utility.
//
// With --optimize the tool emits a ranked deployment *program* instead of
// a one-shot ranking: scenario::Optimizer greedily (or with a beam of
// --beam partial programs) extends the program each round with the
// highest-marginal-utility candidate, rebases the sweep cache onto the
// grown prefix, and shares candidate recomputes across rounds unless
// --no-share. --steps bounds the program length.
//
// With --failures K the tool ranks deployments by *surviving* diversity
// instead of steady-state utility: every candidate is re-evaluated under
// the K-link failure universe (exhaustive when it fits --samples,
// deterministically sampled above it; each failure set is a remove-only
// delta through the same incremental sweep), ranked by the worst-case and
// mean §VI GRC+MA paths that survive. --fail-ases swaps in the
// node-level universe instead: each failure set takes one AS dark
// (scenario::as_failure_delta - every incident link removed at once),
// exhaustive over the graph when it fits --samples and deterministically
// sampled above it, through the identical ranking machinery. Each
// candidate also reports its deployment churn - next-hop changes and
// convergence rounds of the dynamics::converge fixpoint over a
// destination sample. The failure modes exclude each other and
// --optimize (exit 2 before any topology is loaded). Output is a pure
// function of the topology and flags: --threads only changes wall-clock
// time (CI diffs the bytes at 1 and 4 threads).
//
// Environment (see bench_common.hpp): PANAGREE_ASES, PANAGREE_SOURCES,
// PANAGREE_THREADS, and PANAGREE_CAIDA to sweep a real CAIDA as-rel2
// topology instead of the synthetic one. --snapshot FILE (or
// PANAGREE_SNAPSHOT) mmaps a compiled .pansnap instead of re-embedding -
// the CSR arrays are served zero-copy out of the file, so repeated sweeps
// of a CAIDA-scale graph skip the entire startup pipeline.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "bench_common.hpp"
#include "cli_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/dynamics/convergence.hpp"
#include "panagree/econ/business.hpp"
#include "panagree/scenario/failure.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/optimizer.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/util/table.hpp"

using namespace panagree;
using topology::AsId;

namespace {

struct Options {
  std::size_t num_scenarios = 200;
  std::size_t top_k = 10;
  std::uint64_t seed = 4242;
  bool optimize = false;
  bool beam_mode = false;       // --optimize beam
  std::size_t beam_width = 0;   // explicit --beam W, 0 = unset
  std::size_t max_steps = 4;
  bool share = true;
  std::size_t failures = 0;     // --failures K (0 = steady-state modes)
  bool fail_ases = false;       // --fail-ases (AS-level failure universe)
  std::size_t samples = 32;     // --samples N failure-set budget
  std::string snapshot;  // --snapshot FILE (empty = PANAGREE_SNAPSHOT/env)
  /// --threads N (default: the PANAGREE_THREADS env, 0 = one per
  /// allowed cpu).
  std::size_t threads = benchcfg::num_threads();

  /// Flags are order-insensitive: an explicit --beam always wins, and
  /// --optimize beam without one defaults to width 2 (greedy = 1).
  [[nodiscard]] std::size_t resolved_beam_width() const {
    if (beam_width > 0) {
      return beam_width;
    }
    return beam_mode ? 2 : 1;
  }
};

void usage() {
  std::cerr << "usage: panagree-sweep [scenarios] [top-k] [seed]\n"
            << "           [--optimize greedy|beam] [--steps N] [--beam W]"
               " [--no-share]\n"
            << "           [--failures K | --fail-ases] [--samples N]\n"
            << "           [--snapshot FILE] [--threads N]\n";
}

constexpr const char* kTool = "panagree-sweep";

/// Parses the command line into `options`. Malformed numbers and missing
/// option values exit kUsageExit through cli_common; other usage errors
/// return false.
bool parse_args(int argc, char** argv, Options& options) {
  const auto number = [&](std::string_view flag, int& i) {
    return cli::parse_size(kTool, flag,
                           cli::require_value(kTool, flag, argc, argv, i));
  };
  std::size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      cli::print_version(kTool);
    } else if (arg == "--optimize") {
      const std::string mode = cli::require_value(kTool, arg, argc, argv, i);
      if (mode == "greedy") {
        options.optimize = true;
        options.beam_mode = false;
      } else if (mode == "beam") {
        options.optimize = true;
        options.beam_mode = true;
      } else {
        return false;
      }
    } else if (arg == "--steps") {
      options.max_steps = number(arg, i);
    } else if (arg == "--beam") {
      options.beam_width = number(arg, i);
    } else if (arg == "--failures") {
      options.failures = number(arg, i);
      if (options.failures == 0) {
        return false;
      }
    } else if (arg == "--fail-ases") {
      options.fail_ases = true;
    } else if (arg == "--samples") {
      options.samples = number(arg, i);
    } else if (arg == "--snapshot") {
      options.snapshot = cli::require_value(kTool, arg, argc, argv, i);
    } else if (arg == "--threads") {
      options.threads = cli::parse_threads(kTool, argc, argv, i);
    } else if (arg == "--no-share") {
      options.share = false;
    } else if (arg.rfind("--", 0) == 0) {
      return false;  // unknown option
    } else if (positional == 0) {
      options.num_scenarios = cli::parse_size(kTool, "scenarios", arg);
      ++positional;
    } else if (positional == 1) {
      options.top_k = cli::parse_size(kTool, "top-k", arg);
      ++positional;
    } else if (positional == 2) {
      options.seed = cli::parse_size(kTool, "seed", arg);
      ++positional;
    } else {
      return false;
    }
  }
  // One mode at a time: one failure universe, and the failure ranking has
  // no --optimize form. Rejected here, before any topology is loaded.
  const bool failure_mode = options.failures > 0 || options.fail_ases;
  return !(options.failures > 0 && options.fail_ases) &&
         !(options.optimize && failure_mode);
}

std::string describe(const scenario::Delta& delta) {
  std::string out;
  for (const scenario::LinkChange& link : delta.add) {
    if (!out.empty()) {
      out += ", ";
    }
    out += (link.type == topology::LinkType::kPeering ? "peer AS" : "transit AS");
    out += std::to_string(link.a) + " - AS" + std::to_string(link.b);
  }
  for (const auto& [x, y] : delta.remove) {
    if (!out.empty()) {
      out += ", ";
    }
    out += "retire AS" + std::to_string(x) + " - AS" + std::to_string(y);
  }
  return out;
}

/// --fail-ases: the node-level failure universe. Every target AS goes
/// dark as one remove-only delta of all its incident links; exhaustive
/// over the graph when it fits `max_sets`, otherwise the deterministic
/// sample the shared source sampler picks for `seed` (isolated ASes -
/// nothing to fail - are skipped either way).
scenario::FailureSets as_failure_sets(
    const topology::CompiledTopology& compiled,
    const topology::Graph& graph, std::size_t max_sets,
    std::uint64_t seed) {
  scenario::FailureSets failure;
  failure.universe = graph.num_ases();
  std::vector<AsId> targets;
  if (max_sets > 0 && graph.num_ases() > max_sets) {
    failure.sampled = true;
    targets = diversity::sample_sources(graph, max_sets, seed);
  } else {
    targets.resize(graph.num_ases());
    std::iota(targets.begin(), targets.end(), AsId{0});
  }
  for (const AsId as : targets) {
    scenario::Delta delta = scenario::as_failure_delta(compiled, as);
    if (!delta.remove.empty()) {
      failure.sets.push_back(std::move(delta));
    }
  }
  return failure;
}

/// --failures K / --fail-ases: rank candidate deployments by the
/// diversity surviving the failure universe (K-link sets or single-AS
/// blackouts), with deployment churn + convergence rounds from the
/// dynamics fixpoint engine. Everything printed is a pure function of the
/// topology and flags (CI diffs this output across thread counts).
int run_failure_sweep(const Options& options,
                      const topology::CompiledTopology& compiled,
                      const topology::Graph& graph,
                      const std::vector<AsId>& sources) {
  scenario::SweepConfig config;
  config.threads = options.threads;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(compiled, sources,
                                                        config);
  runner.prime([](const scenario::Overlay& overlay, AsId src) {
    return scenario::enumerate_length3(overlay, src);
  });

  const std::string set_kind =
      options.fail_ases ? "AS-failure"
                        : std::to_string(options.failures) + "-link failure";
  const scenario::FailureSets failure =
      options.fail_ases
          ? as_failure_sets(compiled, graph, options.samples, options.seed)
          : scenario::failure_sets(compiled, options.failures,
                                   options.samples, options.seed);
  if (failure.sets.empty()) {
    std::cerr << "error: no " << set_kind << " sets on this topology\n";
    return 1;
  }

  // Steady-state baseline + its diversity under the same failure sets.
  scenario::DiversityCounts base_counts;
  for (const scenario::SourcePathSet& sets : runner.baseline()) {
    base_counts += scenario::count_diversity(sets);
  }
  const scenario::FailureDiversity base_fd =
      scenario::failure_diversity(runner, scenario::Delta{}, failure.sets);

  // Converged routing tables of a small destination sample - the before
  // side of every candidate's churn report.
  const std::vector<AsId> dests = diversity::sample_sources(
      graph, std::min<std::size_t>(12, graph.num_ases()),
      benchcfg::kSampleSeed + 1);
  const dynamics::RoutingSnapshot base_routes =
      dynamics::converge_all(compiled, dests, options.threads);

  const auto candidates = scenario::candidate_peering_deltas(
      compiled, options.num_scenarios, options.seed);
  if (candidates.size() < options.num_scenarios) {
    std::cerr << "[sweep] only " << candidates.size()
              << " distinct candidates available\n";
  }

  struct Ranked {
    std::size_t scenario = 0;
    scenario::FailureDiversity fd;
    dynamics::ChurnReport churn;
    std::size_t rounds = 0;
    bool converged = true;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    Ranked entry;
    entry.scenario = i;
    entry.fd =
        scenario::failure_diversity(runner, candidates[i], failure.sets);
    scenario::Overlay overlay(compiled);
    overlay.apply(candidates[i]);
    const dynamics::RoutingSnapshot routes =
        dynamics::converge_all(overlay, dests, options.threads);
    entry.churn = dynamics::churn(base_routes, routes);
    entry.rounds = routes.max_rounds;
    entry.converged = routes.all_converged;
    ranked.push_back(std::move(entry));
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                             const Ranked& b) {
    if (a.fd.min.total_paths() != b.fd.min.total_paths()) {
      return a.fd.min.total_paths() > b.fd.min.total_paths();
    }
    if (a.fd.mean_paths != b.fd.mean_paths) {
      return a.fd.mean_paths > b.fd.mean_paths;
    }
    return a.scenario < b.scenario;
  });

  std::cout << "== panagree-sweep "
            << (options.fail_ases
                    ? std::string("--fail-ases")
                    : "--failures " + std::to_string(options.failures))
            << ": " << candidates.size() << " candidate deployments over "
            << graph.num_ases() << " ASes, " << failure.sets.size() << " "
            << set_kind << " sets ("
            << (failure.sampled ? "sampled from " : "exhaustive of ")
            << failure.universe << ") ==\n"
            << "baseline over " << sources.size()
            << " sources: " << base_counts.grc_paths << " GRC + "
            << base_counts.ma_paths << " MA paths, "
            << base_counts.reachable_pairs() << " reachable pairs\n"
            << "baseline under failures: min " << base_fd.min.total_paths()
            << " paths / " << base_fd.min.reachable_pairs()
            << " pairs (worst set #" << base_fd.worst_set << "), mean "
            << util::format_double(base_fd.mean_paths, 1) << " paths\n"
            << "routing sample: " << dests.size()
            << " destinations, base convergence max "
            << base_routes.max_rounds << " rounds, "
            << base_routes.reachable_pairs << " reachable (dest, AS) pairs\n"
            << "\n";
  if (!base_routes.all_converged) {
    std::cerr << "[sweep] warning: base routing hit the round cap "
                 "(provider cycle?)\n";
  }
  util::Table table({"rank", "deployment", "min paths", "mean paths",
                     "min pairs", "churn", "gained", "rounds"});
  for (std::size_t i = 0; i < std::min(options.top_k, ranked.size()); ++i) {
    const Ranked& r = ranked[i];
    table.add_row({std::to_string(i + 1),
                   describe(candidates[r.scenario]),
                   std::to_string(r.fd.min.total_paths()),
                   util::format_double(r.fd.mean_paths, 1),
                   std::to_string(r.fd.min.reachable_pairs()),
                   std::to_string(r.churn.changed_next_hops),
                   std::to_string(r.churn.routes_gained),
                   std::to_string(r.rounds)});
    if (!r.converged) {
      std::cerr << "[sweep] warning: candidate " << r.scenario
                << " hit the convergence round cap\n";
    }
  }
  table.print(std::cout);
  std::cout << "\nranked by worst-case surviving GRC+MA paths under "
            << (options.fail_ases
                    ? std::string("single-AS")
                    : std::to_string(options.failures) + "-link")
            << " failures (then mean); churn = next-hop changes over "
            << dests.size() << " converged destinations.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return cli::kUsageExit;
  }
  cli::init_tracing();
  const std::size_t num_scenarios = options.num_scenarios;
  const std::size_t top_k = options.top_k;
  const std::uint64_t seed = options.seed;

  try {
    const auto net = benchcfg::load_internet(
        /*synthetic_cap=*/0,
        options.snapshot.empty() ? nullptr : options.snapshot.c_str());
    const topology::CompiledTopology& compiled = net.compiled();
    const econ::Economy economy = econ::make_default_economy(net.graph());
    // A CAIDA graph is embedded with synthetic geodata (and a snapshot
    // stores the world tables), so the world is always usable here.
    const scenario::MetricsAggregator aggregator(compiled, &net.world(),
                                                 &economy);

    const std::vector<AsId> sources = diversity::sample_sources(
        net.graph(), benchcfg::num_sources(), benchcfg::kSampleSeed);

    if (options.failures > 0 || options.fail_ases) {
      return run_failure_sweep(options, compiled, net.graph(), sources);
    }

    if (options.optimize) {
      const auto candidates =
          scenario::candidate_peering_deltas(compiled, num_scenarios, seed);
      if (candidates.size() < num_scenarios) {
        std::cerr << "[sweep] only " << candidates.size()
                  << " distinct candidates available\n";
      }
      const std::size_t beam_width = options.resolved_beam_width();
      scenario::OptimizerConfig config;
      config.max_steps = options.max_steps;
      config.beam_width = beam_width;
      config.sweep.threads = options.threads;
      config.sweep.dirty_radius = scenario::kLength3DirtyRadius;
      config.share_recomputes = options.share;
      const scenario::Optimizer optimizer(compiled, sources, aggregator,
                                          config);
      const scenario::OptimizerResult result = optimizer.run(candidates);

      std::cout << "== panagree-sweep --optimize "
                << (beam_width > 1 ? "beam" : "greedy") << ": "
                << candidates.size() << " candidates, "
                << net.graph().num_ases() << " ASes, beam "
                << beam_width << ", max " << options.max_steps
                << " steps ==\n"
                << "baseline over " << sources.size()
                << " sources: " << result.baseline.grc_paths << " GRC + "
                << result.baseline.ma_paths << " MA paths, "
                << result.baseline.grc_pairs + result.baseline.ma_extra_pairs
                << " reachable pairs, fees "
                << util::format_double(result.baseline.transit_fees, 1)
                << "\n\n";
      util::Table table({"step", "deployment", "marginal utility",
                         "cumulative utility", "new paths", "new pairs",
                         "fee delta", "mean km delta"});
      for (std::size_t i = 0; i < result.steps.size(); ++i) {
        const scenario::PlannedStep& step = result.steps[i];
        table.add_row(
            {std::to_string(i + 1), describe(step.delta),
             util::format_double(step.marginal_utility, 2),
             util::format_double(step.cumulative_utility, 2),
             util::format_double(step.marginal.paths, 0),
             util::format_double(step.marginal.pairs, 0),
             util::format_double(step.marginal.transit_fees, 2),
             util::format_double(step.marginal.mean_best_geodistance_km,
                                 2)});
      }
      table.print(std::cout);
      const scenario::OptimizerStats& stats = result.stats;
      std::cout << "\nwork: " << stats.primed_sources
                << " sources primed once, " << stats.recomputed_sources
                << " per-source recomputes across " << stats.scored_candidates
                << " candidate scorings (" << stats.reused_evaluations
                << " served from the shared dirty-set cache"
                << (options.share ? "" : ", sharing disabled") << ")\n"
                << "program utility "
                << util::format_double(
                       result.steps.empty()
                           ? 0.0
                           : result.steps.back().cumulative_utility,
                       2)
                << " vs baseline; utility = fees saved + "
                << scenario::UtilityWeights{}.per_new_pair
                << " * new reachable pairs - "
                << scenario::UtilityWeights{}.per_km_regression
                << " * mean-geodistance regression (km), per unit demand.\n";
      return 0;
    }

    scenario::SweepConfig config;
    config.threads = options.threads;
    config.dirty_radius = scenario::kLength3DirtyRadius;
    scenario::SweepRunner<scenario::SourcePathSet> runner(compiled, sources,
                                                          config);
    const auto enumerate = [](const scenario::Overlay& overlay, AsId src) {
      return scenario::enumerate_length3(overlay, src);
    };
    runner.prime(enumerate);
    // Each source's contribution is folded once; a candidate only
    // contributes its dirty sources and splices them in.
    const scenario::SliceSum<scenario::SourceContribution> contribs =
        aggregator.contributions(scenario::Overlay(compiled),
                                 runner.baseline(), options.threads);
    const scenario::ScenarioMetrics baseline =
        scenario::finalize(contribs.total());
    std::cerr << "[sweep] baseline over " << sources.size()
              << " sources: " << baseline.grc_paths << " GRC + "
              << baseline.ma_paths << " MA paths, "
              << baseline.grc_pairs + baseline.ma_extra_pairs
              << " reachable pairs, fees "
              << util::format_double(baseline.transit_fees, 1) << "\n";

    const auto deltas =
        scenario::candidate_peering_deltas(compiled, num_scenarios, seed);
    if (deltas.size() < num_scenarios) {
      std::cerr << "[sweep] only " << deltas.size()
                << " distinct candidates available\n";
    }

    struct Ranked {
      std::size_t scenario = 0;
      scenario::MetricsDelta delta;
      double utility = 0.0;
      scenario::SweepStats stats;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(deltas.size());
    std::size_t recomputed_total = 0;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      Ranked entry;
      entry.scenario = i;
      const scenario::ScenarioMetrics metrics =
          scenario::finalize(aggregator.whatif_total(
              runner, contribs, deltas[i], options.threads, &entry.stats));
      entry.delta = scenario::subtract(metrics, baseline);
      entry.utility = scenario::operator_utility(entry.delta);
      recomputed_total += entry.stats.recomputed_sources;
      ranked.push_back(entry);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) {
                if (a.utility != b.utility) {
                  return a.utility > b.utility;
                }
                return a.scenario < b.scenario;
              });

    const std::size_t source_scenarios = deltas.size() * sources.size();
    std::cout << "== panagree-sweep: " << deltas.size()
              << " candidate peering deployments over "
              << net.graph().num_ases() << " ASes ==\n"
              << "per-source recomputes: " << recomputed_total << " of "
              << source_scenarios << " source-scenarios";
    if (source_scenarios > 0) {
      std::cout << " (cache hit "
                << util::format_double(
                       100.0 * (1.0 - static_cast<double>(recomputed_total) /
                                          static_cast<double>(
                                              source_scenarios)),
                       1)
                << "%)";
    }
    std::cout << "\n\n";
    util::Table table({"rank", "deployment", "utility", "new paths",
                       "new pairs", "fee delta", "mean km delta"});
    for (std::size_t i = 0; i < std::min(top_k, ranked.size()); ++i) {
      const Ranked& r = ranked[i];
      const scenario::LinkChange& link = deltas[r.scenario].add.front();
      table.add_row({std::to_string(i + 1),
                     "peer AS" + std::to_string(link.a) + " - AS" +
                         std::to_string(link.b),
                     util::format_double(r.utility, 2),
                     util::format_double(r.delta.paths, 0),
                     util::format_double(r.delta.pairs, 0),
                     util::format_double(r.delta.transit_fees, 2),
                     util::format_double(r.delta.mean_best_geodistance_km, 2)});
    }
    table.print(std::cout);
    std::cout << "\nutility = fees saved + "
              << scenario::UtilityWeights{}.per_new_pair
              << " * new reachable pairs - "
              << scenario::UtilityWeights{}.per_km_regression
              << " * mean-geodistance regression (km), per unit demand.\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
