// Whole-analysis drivers for the paper's §VI evaluation: sample ASes,
// compute per-source scenario counts (Figures 3-4) and the in-text
// statistics (average/maximum additional paths and destinations).
#pragma once

#include <vector>

#include "panagree/diversity/length3.hpp"
#include "panagree/util/rng.hpp"
#include "panagree/util/stats.hpp"

namespace panagree::diversity {

struct DiversityParams {
  std::size_t sample_sources = 500;
  std::uint64_t seed = 42;
  std::vector<std::size_t> top_ns = {1, 5, 50};
  /// Worker threads for the per-source fan-out; 0 = one per allowed cpu.
  /// Results are identical for every value (deterministic merge order).
  std::size_t threads = 0;
};

/// Per-source row: absolute numbers of length-3 paths (or destinations)
/// visible under each MA-conclusion scenario. GRC paths remain available in
/// every scenario, so scenario values include the GRC baseline.
struct ScenarioRow {
  AsId as = topology::kInvalidAs;
  double grc = 0.0;
  std::vector<double> ma_top;  ///< GRC + top-n MA gains, per requested n
  double ma_star = 0.0;        ///< GRC + all directly gained MA paths
  double ma_all = 0.0;         ///< GRC + all MA paths (direct + indirect)
};

struct DiversityReport {
  std::vector<std::size_t> top_ns;
  std::vector<ScenarioRow> path_rows;  ///< Fig. 3 sample
  std::vector<ScenarioRow> dest_rows;  ///< Fig. 4 sample
  util::Summary additional_paths;      ///< §VI-A: MA-created paths per AS
  util::Summary additional_dests;      ///< §VI-A: new destinations per AS
  std::vector<AsId> sources;
};

/// Samples `params.sample_sources` ASes uniformly (or takes all if the
/// graph is smaller) and computes the Figures 3-4 rows.
[[nodiscard]] DiversityReport analyze_path_diversity(
    const Graph& graph, const DiversityParams& params);

/// Samples source ASes the same way without running the analysis (shared by
/// the geodistance/bandwidth benches so all figures use the same sample).
[[nodiscard]] std::vector<AsId> sample_sources(const Graph& graph,
                                               std::size_t count,
                                               std::uint64_t seed);

}  // namespace panagree::diversity
