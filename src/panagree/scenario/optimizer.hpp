// Greedy / beam-search deployment optimization over SweepRunner.
//
// panagree-sweep's original mode answers "which single deployment scores
// best" by exhaustively ranking candidates. Operators deploy *programs*:
// an ordered build-out where each agreement is chosen given everything
// already deployed - the iterative economic optimization framing of
// Nash-Peering, and the regime where value concentrates in multi-hub
// combinations. Optimizer searches that combinatorial space:
//
//   * each round, every surviving candidate delta is scored by the
//     operator utility of extending the current program with it;
//   * the best extension (beam_width of them, for beam search) is
//     committed: the runner rebases its per-source cache onto the grown
//     program prefix (recomputing only the step's invalidation ball), so
//     the next round evaluates candidates incrementally against the new
//     cumulative state;
//   * candidate evaluations are *shared across rounds*: a candidate's
//     recomputed dirty-source slice stays valid as long as the committed
//     step's invalidation ball does not overlap the candidate's - only
//     overlapping candidates pay a re-enumeration. The overlap test is
//     conservative (the contamination ball is grown over the union of the
//     new state, every candidate's added links, and the step's removed
//     links), so sharing never changes results - property-tested against
//     full recompiles in scenario_program_test.
//
// Scoring never re-aggregates path sets it has already seen: per-source
// results fold into additive SourceContribution slices (a SliceSum per
// search state), so re-scoring a cached candidate after the program grew
// elsewhere is O(sources) additions, not an enumeration.
#pragma once

#include <cstddef>
#include <vector>

#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/program.hpp"
#include "panagree/scenario/sweep.hpp"

namespace panagree::scenario {

struct OptimizerConfig {
  /// Maximum program length (search rounds).
  std::size_t max_steps = 4;
  /// Surviving partial programs per round; 1 = pure greedy.
  std::size_t beam_width = 1;
  /// Threads + invalidation radius of the underlying sweeps. Pass
  /// kLength3DirtyRadius for the canonical length-3 analysis.
  SweepConfig sweep;
  UtilityWeights weights;
  /// Share dirty-source recomputes across rounds between candidates whose
  /// invalidation balls stay clear of the committed step's contamination
  /// ball. Disabling re-enumerates every surviving candidate each round -
  /// results are identical (the ablation BM_Optimizer benches measure).
  bool share_recomputes = true;
  /// A round's best marginal utility must exceed this to commit; the
  /// search stops early otherwise.
  double min_marginal_utility = 0.0;
};

/// One committed step of the emitted deployment program.
struct PlannedStep {
  /// Index into the candidate list passed to run().
  std::size_t candidate = 0;
  Delta delta;
  /// Metrics delta and utility of this step vs the state just before it.
  MetricsDelta marginal;
  double marginal_utility = 0.0;
  /// Utility of the program prefix ending here vs the round-0 baseline.
  double cumulative_utility = 0.0;
};

/// Work accounting of one run() - the cache-sharing story in numbers.
struct OptimizerStats {
  std::size_t primed_sources = 0;     ///< baseline enumerations (once)
  std::size_t scored_candidates = 0;  ///< candidate scorings, all rounds
  /// Scorings served from a prior round's cached dirty-source slice.
  std::size_t reused_evaluations = 0;
  /// Per-source enumerations paid after priming (candidate evaluations
  /// plus the per-round rebase).
  std::size_t recomputed_sources = 0;
};

struct OptimizerResult {
  Program program;
  std::vector<PlannedStep> steps;  ///< one per program step, in order
  /// Aggregate of the unmodified base state over the analyzed sources.
  ScenarioMetrics baseline;
  /// Aggregate of the full committed program.
  ScenarioMetrics final_metrics;
  OptimizerStats stats;
};

class Optimizer {
 public:
  /// `base` and `aggregator` must outlive the optimizer; `sources` is the
  /// analyzed sample (results and utilities are over exactly this set).
  Optimizer(const CompiledTopology& base, std::vector<AsId> sources,
            const MetricsAggregator& aggregator, OptimizerConfig config = {});

  /// Searches over `candidates` (each one candidate agreement delta) and
  /// returns the best deployment program found. Candidates that stop
  /// composing onto the grown program (duplicate pair, conflict) drop out
  /// of the pool; a candidate may be committed at most once. The result
  /// is deterministic: identical at every thread count, and identical
  /// with sharing on or off.
  [[nodiscard]] OptimizerResult run(
      const std::vector<Delta>& candidates) const;

 private:
  const CompiledTopology* base_;
  std::vector<AsId> sources_;
  const MetricsAggregator* aggregator_;
  OptimizerConfig config_;
};

}  // namespace panagree::scenario
