// Failure what-ifs: link-down deltas through the incremental sweep.
//
// A link failure is the mirror image of the agreement deployments the
// scenario engine was built for: a remove-only Delta over the same base
// snapshot, applied through the same Overlay (synthetic removed-link
// masking keeps adjacency rows row-order-identical to recompiling the
// pruned graph) and evaluated through the same SweepRunner
// invalidation-ball machinery - byte-identical to a full recompute at any
// thread count, with only the sources near the failed link recomputed.
//
// failure_sets() enumerates the k-link failure universe (every C(L, k)
// combination in lexicographic link-id order) and degrades to a
// deterministic seeded sample above a budget; failure_diversity() folds
// the §VI GRC/MA counts surviving each set into the min/mean headline
// metric (scenario::FailureDiversity) for a deployment candidate - "rank
// programs by the diversity they keep when links go down", the
// panagree-sweep --failures mode.
#pragma once

#include <span>

#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"

namespace panagree::scenario {

/// The k-link failure universe of a snapshot, as remove-only deltas.
struct FailureSets {
  std::vector<Delta> sets;
  /// True when the universe exceeded the budget and `sets` is a sample.
  bool sampled = false;
  /// C(num_links, k), saturated at SIZE_MAX on overflow.
  std::size_t universe = 0;
};

/// Enumerates every k-link failure set of `base` when C(L, k) fits
/// `max_sets`, in lexicographic link-id order; otherwise returns a
/// deterministic seeded sample of `max_sets` distinct sets. max_sets == 0
/// means unlimited (always exhaustive). k == 0 or an empty graph yields
/// no sets.
[[nodiscard]] FailureSets failure_sets(const CompiledTopology& base,
                                       std::size_t k, std::size_t max_sets,
                                       std::uint64_t seed);

/// Every base link incident to `as` as one remove-only delta - the
/// AS-failure scenario (the AS keeps existing; all its adjacencies go
/// dark, which is what the length-3 analyses and the convergence engine
/// observe).
[[nodiscard]] Delta as_failure_delta(const CompiledTopology& base, AsId as);

/// Evaluates `deployment` under every failure set: each set is composed
/// onto the deployment (deployment links stay up; the failed base links
/// go down), and its dirty sources' counts (on the runner's threads) are
/// spliced into the state's per-source counts, counted once per call;
/// the surviving §VI diversity counts fold into the min/mean headline.
/// `runner` must be primed; `deployment` must not remove links that
/// appear in a failure set (deployments add links). Results are a pure
/// function of (runner state, deployment, failures) - thread counts only
/// change wall-clock time.
[[nodiscard]] FailureDiversity failure_diversity(
    const SweepRunner<SourcePathSet>& runner, const Delta& deployment,
    std::span<const Delta> failures);

}  // namespace panagree::scenario
