#include "panagree/diversity/report.hpp"

#include "panagree/paths/parallel.hpp"

namespace panagree::diversity {

std::vector<AsId> sample_sources(const Graph& graph, std::size_t count,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t n = graph.num_ases();
  if (count >= n) {
    std::vector<AsId> all(n);
    for (AsId as = 0; as < n; ++as) {
      all[as] = as;
    }
    return all;
  }
  const auto picks = rng.sample_without_replacement(n, count);
  std::vector<AsId> sources;
  sources.reserve(count);
  for (const std::size_t p : picks) {
    sources.push_back(static_cast<AsId>(p));
  }
  return sources;
}

DiversityReport analyze_path_diversity(const Graph& graph,
                                       const DiversityParams& params) {
  DiversityReport report;
  report.top_ns = params.top_ns;
  report.sources = sample_sources(graph, params.sample_sources, params.seed);

  const Length3Analyzer analyzer(graph);
  std::vector<double> additional_paths;
  std::vector<double> additional_dests;
  additional_paths.reserve(report.sources.size());
  additional_dests.reserve(report.sources.size());

  // Per-source counting is independent: fan out over the parallel driver
  // (results come back in source order, so the rows below are identical
  // for every thread count), then assemble rows serially.
  const std::vector<SourceCounts> per_source = paths::map_sources(
      report.sources, params.threads,
      [&](AsId src) { return analyzer.count(src, params.top_ns); });

  for (std::size_t i = 0; i < report.sources.size(); ++i) {
    const AsId src = report.sources[i];
    const SourceCounts& c = per_source[i];

    ScenarioRow paths;
    paths.as = src;
    paths.grc = static_cast<double>(c.grc_paths);
    for (const std::size_t top : c.ma_top_paths) {
      paths.ma_top.push_back(paths.grc + static_cast<double>(top));
    }
    paths.ma_star = paths.grc + static_cast<double>(c.ma_direct_paths);
    paths.ma_all = paths.grc + static_cast<double>(c.ma_all_paths);
    report.path_rows.push_back(std::move(paths));

    ScenarioRow dests;
    dests.as = src;
    dests.grc = static_cast<double>(c.grc_dests);
    for (const std::size_t top : c.ma_top_dests) {
      dests.ma_top.push_back(dests.grc + static_cast<double>(top));
    }
    dests.ma_star = dests.grc + static_cast<double>(c.ma_direct_dests);
    dests.ma_all = dests.grc + static_cast<double>(c.ma_all_dests);
    report.dest_rows.push_back(std::move(dests));

    additional_paths.push_back(static_cast<double>(c.ma_all_paths));
    additional_dests.push_back(static_cast<double>(c.ma_all_dests));
  }

  report.additional_paths = util::summarize(additional_paths);
  report.additional_dests = util::summarize(additional_dests);
  return report;
}

}  // namespace panagree::diversity
