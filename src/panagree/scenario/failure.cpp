#include "panagree/scenario/failure.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "panagree/scenario/program.hpp"
#include "panagree/util/rng.hpp"

namespace panagree::scenario {

namespace {

/// C(n, k) saturated at SIZE_MAX (the exhaustive-vs-sample decision only
/// needs "does the universe fit the budget").
[[nodiscard]] std::size_t binomial_saturated(std::size_t n, std::size_t k) {
  if (k > n) {
    return 0;
  }
  unsigned __int128 value = 1;
  constexpr unsigned __int128 kCap =
      static_cast<unsigned __int128>(std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < k; ++i) {
    // Exact at every step: C(n, i + 1) = C(n, i) * (n - i) / (i + 1).
    value = value * (n - i) / (i + 1);
    if (value > kCap) {
      return std::numeric_limits<std::size_t>::max();
    }
  }
  return static_cast<std::size_t>(value);
}

[[nodiscard]] Delta links_down(const topology::Graph& graph,
                               std::span<const std::uint32_t> link_ids) {
  Delta delta;
  delta.remove.reserve(link_ids.size());
  for (const std::uint32_t id : link_ids) {
    const topology::Link& link = graph.link(id);
    delta.remove.emplace_back(link.a, link.b);
  }
  return delta;
}

}  // namespace

FailureSets failure_sets(const CompiledTopology& base, std::size_t k,
                         std::size_t max_sets, std::uint64_t seed) {
  const topology::Graph& graph = base.graph();
  const std::size_t num_links = graph.num_links();
  FailureSets out;
  out.universe = k == 0 ? 0 : binomial_saturated(num_links, k);
  if (out.universe == 0) {
    return out;
  }
  if (max_sets == 0 || out.universe <= max_sets) {
    // Exhaustive: lexicographic k-combinations of link ids.
    std::vector<std::uint32_t> combo(k);
    for (std::size_t i = 0; i < k; ++i) {
      combo[i] = static_cast<std::uint32_t>(i);
    }
    out.sets.reserve(out.universe);
    for (;;) {
      out.sets.push_back(links_down(graph, combo));
      // Advance the rightmost index that still has room.
      std::size_t pos = k;
      while (pos > 0 &&
             combo[pos - 1] + (k - pos) + 1 >= num_links) {
        --pos;
      }
      if (pos == 0) {
        break;
      }
      ++combo[pos - 1];
      for (std::size_t i = pos; i < k; ++i) {
        combo[i] = combo[i - 1] + 1;
      }
    }
    return out;
  }
  // Sampled: deterministic distinct k-subsets. The attempt bound turns a
  // near-exhausted universe into a short result instead of a hang.
  out.sampled = true;
  util::Rng rng(seed);
  std::set<std::vector<std::uint32_t>> used;
  for (std::size_t attempts = 0;
       out.sets.size() < max_sets && attempts < 100 * max_sets + 1000;
       ++attempts) {
    std::vector<std::uint32_t> combo;
    combo.reserve(k);
    while (combo.size() < k) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_index(num_links));
      if (std::find(combo.begin(), combo.end(), id) == combo.end()) {
        combo.push_back(id);
      }
    }
    std::sort(combo.begin(), combo.end());
    if (!used.insert(combo).second) {
      continue;
    }
    out.sets.push_back(links_down(graph, combo));
  }
  return out;
}

Delta as_failure_delta(const CompiledTopology& base, AsId as) {
  Delta delta;
  for (const CompiledTopology::Entry& entry : base.entries(as)) {
    delta.remove.emplace_back(as, entry.neighbor);
  }
  return delta;
}

SliceSum<DiversityCounts> diversity_counts(
    const SweepRunner<SourcePathSet>& runner) {
  util::require(runner.primed(), "diversity_counts: prime the runner first");
  const std::vector<SourcePathSet>& cache = runner.baseline();
  return SliceSum<DiversityCounts>(paths::map_indices(
      cache.size(), runner.config().threads,
      [&](std::size_t i) { return count_diversity(cache[i]); }));
}

FailureDiversity failure_diversity(const SweepRunner<SourcePathSet>& runner,
                                   const SliceSum<DiversityCounts>& counts,
                                   const Delta& deployment,
                                   std::span<const Delta> failures) {
  util::require(runner.primed(), "failure_diversity: prime the runner first");
  util::require(counts.slices().size() == runner.sources().size(),
                "failure_diversity: counts of another source sample");
  const std::size_t threads = runner.config().threads;
  FailureDiversity out;
  out.sets = failures.size();
  double paths_sum = 0.0;
  double pairs_sum = 0.0;
  bool first = true;
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const Delta delta = deployment.empty()
                            ? failures[i]
                            : compose(deployment, failures[i]);
    DirtySlice<DiversityCounts> dirty;
    runner.evaluate_dirty_visit(
        delta,
        [](const Overlay& overlay, AsId src) {
          return count_diversity(enumerate_length3(overlay, src));
        },
        dirty, threads);
    const DiversityCounts surviving =
        counts.spliced(dirty.positions, dirty.results);
    paths_sum += static_cast<double>(surviving.total_paths());
    pairs_sum += static_cast<double>(surviving.reachable_pairs());
    if (first || surviving.total_paths() < out.min.total_paths()) {
      out.min = surviving;
      out.worst_set = i;
      first = false;
    }
  }
  if (!failures.empty()) {
    out.mean_paths = paths_sum / static_cast<double>(failures.size());
    out.mean_pairs = pairs_sum / static_cast<double>(failures.size());
  }
  return out;
}

}  // namespace panagree::scenario
