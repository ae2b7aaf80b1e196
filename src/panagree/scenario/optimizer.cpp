#include "panagree/scenario/optimizer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "panagree/obs/trace.hpp"
#include "panagree/util/error.hpp"

namespace panagree::scenario {

namespace {

SourcePathSet enumerate(const Overlay& overlay, AsId src) {
  return enumerate_length3(overlay, src);
}

/// One candidate's cached evaluation against some program state. The
/// dirty-source slice (positions, path sets, contributions) survives
/// commits of steps whose contamination ball stays clear of it.
struct CandidateEval {
  bool feasible = true;
  bool valid = false;
  /// Endpoints of the candidate delta (sorted) - the overlap probe.
  std::vector<AsId> touched;
  /// Sorted source ids of the dirty positions - the other overlap probe.
  std::vector<AsId> dirty_sources;
  std::vector<std::size_t> dirty_positions;
  std::vector<SourcePathSet> fresh;
  std::vector<SourceContribution> fresh_contribs;

  void drop_cache() {
    valid = false;
    dirty_sources.clear();
    dirty_positions.clear();
    fresh.clear();
    fresh_contribs.clear();
  }
};

/// One partial program under search (greedy keeps exactly one).
struct SearchState {
  explicit SearchState(SweepRunner<SourcePathSet> r)
      : runner(std::move(r)) {}

  SweepRunner<SourcePathSet> runner;
  /// Per-source contribution of the current program state, runner order.
  std::vector<SourceContribution> contribs;
  ScenarioMetrics metrics;
  double cumulative_utility = 0.0;
  Program program;
  std::vector<PlannedStep> steps;
  std::vector<CandidateEval> evals;
};

struct Scored {
  bool feasible = false;
  SourceContribution total;
  ScenarioMetrics metrics;
  MetricsDelta marginal;
  double marginal_utility = 0.0;
};

[[nodiscard]] bool sorted_contains(const std::vector<AsId>& sorted, AsId x) {
  return std::binary_search(sorted.begin(), sorted.end(), x);
}

/// Sum of the state's per-source contributions with the candidate's
/// dirty-source slices spliced in - fixed (source-order) association, so
/// scores are bit-identical however the slices were obtained.
[[nodiscard]] SourceContribution fold_total(const SearchState& state,
                                            const CandidateEval& eval) {
  SourceContribution total;
  std::size_t next = 0;
  for (std::size_t i = 0; i < state.contribs.size(); ++i) {
    if (next < eval.dirty_positions.size() &&
        eval.dirty_positions[next] == i) {
      total += eval.fresh_contribs[next];
      ++next;
    } else {
      total += state.contribs[i];
    }
  }
  return total;
}

/// The committed step's contamination balls, BFS'd over the *union* of
/// the new program state, the step's removed links, and every
/// candidate's added links. Distances in any topology a cached candidate
/// evaluation compares (old or new state, with any candidate folded in)
/// are no shorter than in this union, so probes that miss the balls
/// leave the cached slice provably byte-identical - the soundness core
/// of cross-round sharing.
struct ContaminationBalls {
  /// Depth <= radius: a cached *dirty source* here may enumerate the
  /// step's changed links (its results can differ).
  std::vector<AsId> source_probe;
  /// Depth <= radius - 1: a candidate *endpoint* here may see its
  /// invalidation-ball membership change (a changed link can lie on a
  /// <= radius BFS path only if its endpoint is within radius - 1 of a
  /// seed). At the canonical radius 1 this is just the step's own
  /// endpoints, which is why hub-sharing candidates survive commits
  /// that land one hop away.
  std::vector<AsId> touched_probe;
};

[[nodiscard]] ContaminationBalls contamination_balls(
    const Overlay& state_overlay, const std::vector<Delta>& candidates,
    const Delta& step, std::size_t radius) {
  const std::size_t n = state_overlay.num_ases();
  std::unordered_map<AsId, std::vector<AsId>> extra;
  const auto add_edge = [&](AsId x, AsId y) {
    if (x < n && y < n) {
      extra[x].push_back(y);
      extra[y].push_back(x);
    }
  };
  for (const Delta& candidate : candidates) {
    for (const LinkChange& change : candidate.add) {
      add_edge(change.a, change.b);
    }
  }
  for (const auto& [x, y] : step.remove) {
    add_edge(x, y);
  }

  std::vector<AsId> ball = touched_ases(step);
  std::vector<char> seen(n, 0);
  for (const AsId as : ball) {
    seen[as] = 1;
  }
  ContaminationBalls out;
  bool touched_probe_set = false;
  std::vector<AsId> frontier = ball;
  std::vector<AsId> next;
  for (std::size_t depth = 0; depth < radius && !frontier.empty(); ++depth) {
    if (depth + 1 == radius) {
      out.touched_probe = ball;  // everything within radius - 1
      touched_probe_set = true;
    }
    next.clear();
    const auto visit = [&](AsId neighbor) {
      if (seen[neighbor] == 0) {
        seen[neighbor] = 1;
        next.push_back(neighbor);
      }
    };
    for (const AsId as : frontier) {
      state_overlay.for_each_entry(
          as, [&](const Overlay::Entry& entry) { visit(entry.neighbor); });
      const auto it = extra.find(as);
      if (it != extra.end()) {
        for (const AsId neighbor : it->second) {
          visit(neighbor);
        }
      }
    }
    ball.insert(ball.end(), next.begin(), next.end());
    frontier.swap(next);
  }
  if (!touched_probe_set) {
    // The loop never reached depth radius - 1: either radius is 0, or
    // the frontier ran dry first - in which case `ball` is the entire
    // closed reachable set and therefore a superset of every
    // radius - 1 ball. Use it verbatim (seeds only, for radius 0).
    out.touched_probe = ball;
  }
  std::sort(out.touched_probe.begin(), out.touched_probe.end());
  std::sort(ball.begin(), ball.end());
  out.source_probe = std::move(ball);
  return out;
}

/// Evaluates one candidate's dirty-source slice against the state's
/// cached results - the parallel-safe unit of a scoring round: reads only
/// the runner's (const) state and writes only its own eval. Candidates
/// that stop composing onto the grown program turn infeasible here;
/// precondition failures elsewhere (a malformed candidate aside, there
/// should be none) still propagate instead of being reclassified as
/// infeasibility.
SweepStats evaluate_candidate(const SearchState& state, const Delta& delta,
                              CandidateEval& eval,
                              const MetricsAggregator& aggregator) {
  SweepStats sweep_stats;
  eval.drop_cache();
  try {
    // Feasibility probe only: does the candidate still compose onto the
    // grown program and validate against the snapshot?
    Overlay probe(state.runner.base());
    probe.apply(compose(state.runner.state(), delta));
  } catch (const util::PreconditionError&) {
    // Duplicate pair, conflicting rewire, malformed endpoints: out of
    // the pool for good.
    eval.feasible = false;
    return sweep_stats;
  }
  MetricsAggregator::Scratch scratch;
  state.runner.evaluate_dirty_visit(
      delta, enumerate,
      [&](std::size_t position, const Overlay& overlay,
          SourcePathSet result) {
        eval.dirty_positions.push_back(position);
        eval.fresh_contribs.push_back(
            aggregator.contribution(overlay, result, scratch));
        eval.fresh.push_back(std::move(result));
      },
      /*threads=*/1, &sweep_stats);
  eval.dirty_sources.reserve(eval.dirty_positions.size());
  for (const std::size_t position : eval.dirty_positions) {
    eval.dirty_sources.push_back(state.runner.sources()[position]);
  }
  std::sort(eval.dirty_sources.begin(), eval.dirty_sources.end());
  eval.valid = true;
  return sweep_stats;
}

/// Scores a candidate with a valid cached slice: a pure fold, no
/// enumeration.
[[nodiscard]] Scored score_candidate(const SearchState& state,
                                     const CandidateEval& eval,
                                     const UtilityWeights& weights) {
  Scored scored;
  scored.feasible = true;
  scored.total = fold_total(state, eval);
  scored.metrics = finalize(scored.total);
  scored.marginal = subtract(scored.metrics, state.metrics);
  scored.marginal_utility = operator_utility(scored.marginal, weights);
  return scored;
}

}  // namespace

Optimizer::Optimizer(const CompiledTopology& base, std::vector<AsId> sources,
                     const MetricsAggregator& aggregator,
                     OptimizerConfig config)
    : base_(&base),
      sources_(std::move(sources)),
      aggregator_(&aggregator),
      config_(config) {
  util::require(config_.beam_width >= 1,
                "Optimizer: beam_width must be at least 1");
}

OptimizerResult Optimizer::run(const std::vector<Delta>& candidates) const {
  OptimizerResult result;
  OptimizerStats stats;
  stats.primed_sources = sources_.size();

  SearchState root(
      SweepRunner<SourcePathSet>(*base_, sources_, config_.sweep));
  root.runner.prime(enumerate);
  const Overlay base_view(*base_);
  root.contribs.reserve(sources_.size());
  SourceContribution base_total;
  MetricsAggregator::Scratch scratch;
  for (const SourcePathSet& sets : root.runner.baseline()) {
    root.contribs.push_back(
        aggregator_->contribution(base_view, sets, scratch));
    base_total += root.contribs.back();
  }
  root.metrics = finalize(base_total);
  root.evals.resize(candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    root.evals[c].touched = touched_ases(candidates[c]);
  }
  result.baseline = root.metrics;

  std::vector<SearchState> states;
  states.push_back(std::move(root));

  struct Proposal {
    std::size_t state = 0;
    std::size_t candidate = 0;
    Scored scored;
    double cumulative_utility = 0.0;
  };

  for (std::size_t round = 0; round < config_.max_steps; ++round) {
    const obs::TraceSpan round_span("optimizer.round");
    std::vector<Proposal> proposals;
    for (std::size_t s = 0; s < states.size(); ++s) {
      SearchState& state = states[s];
      // Evaluation phase: candidates without a valid cached slice, fanned
      // out in parallel - each worker pays only its own candidate's
      // invalidation ball against the shared read-only state cache.
      std::vector<std::size_t> pending;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        if (state.evals[c].feasible && !state.evals[c].valid) {
          pending.push_back(c);
        }
      }
      const std::vector<SweepStats> eval_stats = paths::map_indices(
          pending.size(), config_.sweep.threads,
          [&](std::size_t k) {
            const std::size_t c = pending[k];
            return evaluate_candidate(state, candidates[c], state.evals[c],
                                      *aggregator_);
          },
          /*min_parallel=*/2);
      for (const SweepStats& sweep_stats : eval_stats) {
        stats.recomputed_sources += sweep_stats.recomputed_sources;
      }

      // Scoring fold, serial and in candidate order (deterministic).
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const CandidateEval& eval = state.evals[c];
        if (!eval.feasible) {
          continue;
        }
        ++stats.scored_candidates;
        if (!std::binary_search(pending.begin(), pending.end(), c)) {
          ++stats.reused_evaluations;
        }
        Scored scored = score_candidate(state, eval, config_.weights);
        if (scored.marginal_utility <= config_.min_marginal_utility) {
          continue;
        }
        Proposal proposal;
        proposal.state = s;
        proposal.candidate = c;
        proposal.cumulative_utility = operator_utility(
            subtract(scored.metrics, result.baseline), config_.weights);
        proposal.scored = std::move(scored);
        proposals.push_back(std::move(proposal));
      }
    }
    if (proposals.empty()) {
      break;
    }
    std::sort(proposals.begin(), proposals.end(),
              [](const Proposal& a, const Proposal& b) {
                if (a.cumulative_utility != b.cumulative_utility) {
                  return a.cumulative_utility > b.cumulative_utility;
                }
                if (a.state != b.state) {
                  return a.state < b.state;
                }
                return a.candidate < b.candidate;
              });
    if (proposals.size() > config_.beam_width) {
      proposals.resize(config_.beam_width);
    }

    // Materialize the next beam. States are copied (the last take moves);
    // each child then commits its proposal's candidate.
    std::vector<SearchState> next_states;
    next_states.reserve(proposals.size());
    std::vector<std::size_t> remaining_uses(states.size(), 0);
    for (const Proposal& proposal : proposals) {
      ++remaining_uses[proposal.state];
    }
    for (const Proposal& proposal : proposals) {
      SearchState child = (--remaining_uses[proposal.state] == 0)
                              ? std::move(states[proposal.state])
                              : states[proposal.state];
      const Delta& delta = candidates[proposal.candidate];

      // The winner's just-scored slice is exactly what a rebase would
      // recompute (same seeds, radius, and composed overlay): commit by
      // adopting it - path sets into the runner's cache, contributions
      // into the state's - instead of enumerating the ball a second
      // time.
      CandidateEval& winner = child.evals[proposal.candidate];
      child.runner.rebase_adopted(delta, winner.dirty_positions,
                                  std::move(winner.fresh));
      child.program.push(delta);
      for (std::size_t k = 0; k < winner.dirty_positions.size(); ++k) {
        child.contribs[winner.dirty_positions[k]] = winner.fresh_contribs[k];
      }
      child.metrics = proposal.scored.metrics;
      child.cumulative_utility = proposal.cumulative_utility;

      PlannedStep step;
      step.candidate = proposal.candidate;
      step.delta = delta;
      step.marginal = proposal.scored.marginal;
      step.marginal_utility = proposal.scored.marginal_utility;
      step.cumulative_utility = proposal.cumulative_utility;
      child.steps.push_back(std::move(step));

      winner.feasible = false;
      winner.drop_cache();
      if (config_.share_recomputes) {
        Overlay state_overlay(*base_);
        state_overlay.apply(child.runner.state());
        const ContaminationBalls contaminated = contamination_balls(
            state_overlay, candidates, delta, config_.sweep.dirty_radius);
        for (CandidateEval& eval : child.evals) {
          if (!eval.valid) {
            continue;
          }
          const bool hit =
              std::any_of(eval.touched.begin(), eval.touched.end(),
                          [&](AsId as) {
                            return sorted_contains(
                                contaminated.touched_probe, as);
                          }) ||
              std::any_of(eval.dirty_sources.begin(),
                          eval.dirty_sources.end(), [&](AsId as) {
                            return sorted_contains(
                                contaminated.source_probe, as);
                          });
          if (hit) {
            eval.drop_cache();
          }
        }
      } else {
        for (CandidateEval& eval : child.evals) {
          eval.drop_cache();
        }
      }
      next_states.push_back(std::move(child));
    }
    states = std::move(next_states);
  }

  // Best surviving partial program; ties favor the earliest (greedy has
  // exactly one state throughout).
  std::size_t best = 0;
  for (std::size_t s = 1; s < states.size(); ++s) {
    if (states[s].cumulative_utility > states[best].cumulative_utility) {
      best = s;
    }
  }
  SearchState& chosen = states[best];
  result.program = std::move(chosen.program);
  result.steps = std::move(chosen.steps);
  result.final_metrics = chosen.metrics;
  result.stats = stats;
  return result;
}

}  // namespace panagree::scenario
