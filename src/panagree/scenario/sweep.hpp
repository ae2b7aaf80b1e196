// Incremental what-if sweeps over agreement-deployment deltas.
//
// A sweep evaluates one per-source analysis (path enumeration, routing
// tables, diversity counters, ...) across many scenarios, each a small
// link Delta over the same base snapshot. Two facts make this incremental:
//
//   1. *Locality.* A bounded-depth walk from source S can only be affected
//      by a changed link if one of the link's endpoints lies within the
//      walk's reach of S. SweepRunner computes the "invalidation ball" -
//      every AS within `dirty_radius` undirected hops of a changed-link
//      endpoint - and recomputes only the sources inside it. For a
//      max_len-AS enumeration, dirty_radius = max_len - 1 is sufficient:
//      on-path links have an endpoint within max_len - 2 hops, and the
//      only off-path lookups of the shipped policies (BasicMaLength3Step's
//      (source, dst) role checks) involve the source itself, at distance
//      zero. The ball is computed over base + added links, which contains
//      every link either the cached or the overlaid walk can traverse, so
//      the dirty set is conservative in both directions of the delta.
//
//   2. *Determinism.* Clean sources reuse the cached baseline result;
//      prime() and evaluate_dirty_visit - the one place that builds the
//      composed overlay, the ball and the dirty fan-out, under every
//      evaluate flavor and rebase() - call paths::map_sources directly,
//      whose output is in source order at any thread count however its
//      cursor hands the sources out. Spliced results are therefore
//      byte-identical to a full recompute of the mutated graph, serial or
//      parallel (scenario_test locks this in).
//
// The per-source function must be pure, thread-safe, and local: its result
// may depend only on topology within dirty_radius hops of the source.
// Results of sources outside the ball are assumed (and asserted by tests,
// not at runtime) to equal their baseline values.
//
// The canonical Result (scenario::SourcePathSet) stores a source's path
// sets run-length over hops and gap-coded within a hop - the source once,
// one run per hop, one byte for almost every destination - so the
// runner's cache holds two flat arrays per source at ~1.06 bytes a path:
// 3.9 MB for the 3.64M paths of 500 sources on the 3000-AS fixture, where
// one u32 destination per path took 14.6 MB and {src, mid, dst} triples
// 41.6 MB. A copied runner copies its Result vector: the optimizer's
// search states copy every set, while the serving engine caches
// scenario::SharedPathSet (SweepRunner<SharedPathSet>), so its
// copy-on-rebase copies a pointer per source and shares the sets a step
// leaves clean. Scorers do not read the cache per scenario: they keep
// per-source additive slices of it (scenario::SliceSum in metrics.hpp)
// and splice in the dirty sources'.
//
// Deployment *programs* (ordered step sequences, scenario::Program) ride
// on the same machinery: rebase() folds a committed step into the cached
// state, so the cache is always keyed by the current program prefix, and
// every evaluate flavor measures its delta on top of state(). The ball of
// a step seeds only at the step's own endpoints while walking the full
// composed adjacency - locality holds because any link present in one of
// the compared topologies but not the other is a step link, whose
// endpoints are both seeds.
#pragma once

#include <chrono>
#include <cstddef>
#include <span>
#include <vector>

#include "panagree/obs/metrics.hpp"
#include "panagree/obs/trace.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/scenario/program.hpp"

namespace panagree::scenario {

namespace detail {

/// Sweep metrics: the invalidation-ball distribution is *the* quantity
/// deciding whether incremental sweeps pay off, so it is always on
/// (relaxed adds at scenario granularity, not per source).
struct SweepMetrics {
  obs::Counter& recomputed_sources;
  obs::Counter& cached_sources;
  obs::Counter& primes;
  obs::Histogram& ball_size;
  obs::Histogram& dirty_sources;
  obs::Histogram& prime_ns;
  obs::Histogram& evaluate_ns;
};

[[nodiscard]] inline SweepMetrics& sweep_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static SweepMetrics metrics{
      reg.counter("sweep.recomputed_sources"),
      reg.counter("sweep.cached_sources"),
      reg.counter("sweep.prime"),
      reg.histogram("sweep.ball_size"),
      reg.histogram("sweep.dirty_sources"),
      reg.histogram("sweep.prime_ns"),
      reg.histogram("sweep.evaluate_ns"),
  };
  return metrics;
}

[[nodiscard]] inline std::uint64_t sweep_clock_ns() noexcept {
  if constexpr (obs::enabled()) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  } else {
    return 0;
  }
}

}  // namespace detail

struct SweepConfig {
  /// Worker threads for per-source fan-outs (0 = one per allowed cpu).
  std::size_t threads = 0;
  /// Invalidation radius in undirected hops around changed-link endpoints.
  /// For a max_len-AS enumeration, max_len - 2 covers every on-path link
  /// (hop i's nearer endpoint is at distance i from the source) and every
  /// policy lookup anchored at the source; add 1 if a policy consults
  /// role pairs *not* involving the source. The default is the safe bound
  /// for the length-3 analyses; pass metrics' kLength3DirtyRadius (= 1,
  /// with proof) for the canonical sweep - on small-world AS graphs the
  /// radius-2 ball of a hub covers most sources and forfeits the caching.
  std::size_t dirty_radius = 2;
};

/// Per-scenario accounting of the cache's effectiveness.
struct SweepStats {
  std::size_t recomputed_sources = 0;  ///< inside the invalidation ball
  std::size_t cached_sources = 0;      ///< baseline result reused
  std::size_t ball_size = 0;           ///< ASes in the invalidation ball
};

/// All ASes within `radius` undirected hops of a changed-link endpoint of
/// `overlay` (the endpoints themselves included), sorted ascending. BFS
/// over the overlaid adjacency; since both endpoints of every changed link
/// are seeds, traversing base-removed links could not reach anything new.
[[nodiscard]] std::vector<AsId> invalidation_ball(const Overlay& overlay,
                                                  std::size_t radius);

/// The ball grown from an explicit seed set instead of every AS the
/// overlay touches - the program-aware variant: when a step delta lands on
/// top of an already-composed overlay, only the *step's* endpoints dirty
/// anything, while the BFS still walks the full composed adjacency.
/// `seeds` must be sorted, deduplicated, in-range AS ids; the result is
/// sorted ascending and contains the seeds. Sound for a step onto a
/// cached state: every link present in either the cached or the stepped
/// topology but not both is a step link, and both its endpoints are
/// seeds, so walking only the stepped adjacency misses no distances.
[[nodiscard]] std::vector<AsId> invalidation_ball(const Overlay& overlay,
                                                  std::vector<AsId> seeds,
                                                  std::size_t radius);

/// `count` single-link candidate deployments: new peering links between
/// distinct ASes two hops apart today (the "we already meet at a common
/// facility" pairs that dominate real peering candidacies), no pair twice.
/// Deterministic given `seed`; returns fewer if the graph runs out of
/// distinct candidates.
[[nodiscard]] std::vector<Delta> candidate_peering_deltas(
    const CompiledTopology& base, std::size_t count, std::uint64_t seed);

/// A SweepRunner::evaluate_dirty_visit visitor that keeps what it is
/// handed: the dirty positions, ascending, and the result of each.
template <typename T>
struct DirtySlice {
  std::vector<std::size_t> positions;
  std::vector<T> results;

  void operator()(std::size_t position, const Overlay&, T result) {
    positions.push_back(position);
    results.push_back(std::move(result));
  }
};

template <typename Result>
class SweepRunner {
 public:
  /// `base` must outlive the runner; `sources` is the analyzed sample (any
  /// order, kept verbatim - results are returned in this order).
  SweepRunner(const CompiledTopology& base, std::vector<AsId> sources,
              SweepConfig config = {})
      : base_(&base), sources_(std::move(sources)), config_(config) {
    for (const AsId src : sources_) {
      util::require(src < base.num_ases(),
                    "SweepRunner: source out of range");
    }
  }

  [[nodiscard]] const std::vector<AsId>& sources() const { return sources_; }
  [[nodiscard]] const CompiledTopology& base() const { return *base_; }
  [[nodiscard]] const SweepConfig& config() const { return config_; }
  [[nodiscard]] bool primed() const { return primed_; }

  /// The composed delta the cache currently represents: empty after
  /// prime(), the cumulative program after rebase() calls. Every evaluate
  /// flavor measures its scenario delta *on top of* this state.
  [[nodiscard]] const Delta& state() const { return state_; }

  /// Computes and caches the baseline result of every source over the
  /// empty overlay (= the base snapshot) and resets state() to empty.
  /// `fn(overlay, source) -> Result` must be callable concurrently.
  /// Idempotent per fn; re-priming with a different fn replaces the cache.
  template <typename Fn>
  void prime(const Fn& fn) {
    const obs::TraceSpan span("sweep.prime");
    const std::uint64_t start = detail::sweep_clock_ns();
    const Overlay empty(*base_);
    // Each source is a whole enumeration: the whole-unit threshold.
    cache_ = paths::map_sources(
        sources_, config_.threads, [&](AsId src) { return fn(empty, src); },
        /*min_parallel=*/2);
    state_ = Delta{};
    primed_ = true;
    if constexpr (obs::enabled()) {
      detail::SweepMetrics& metrics = detail::sweep_metrics();
      metrics.primes.increment();
      metrics.prime_ns.record(detail::sweep_clock_ns() - start);
    }
  }

  /// The cached per-source results of state(), in sources() order (the
  /// base-snapshot baseline until the first rebase).
  [[nodiscard]] const std::vector<Result>& baseline() const {
    util::require(primed_, "SweepRunner::baseline: prime() first");
    return cache_;
  }

  /// Folds `step` into the cached state: state() becomes
  /// compose(state(), step) and the cache becomes that composed
  /// scenario's per-source results - recomputing only the sources inside
  /// the step's invalidation ball. This is the program-prefix cache: a
  /// deployment optimizer commits its chosen step per round and keeps
  /// evaluating candidates incrementally against the grown state.
  template <typename Fn>
  void rebase(const Delta& step, const Fn& fn, SweepStats* stats = nullptr) {
    DirtySlice<Result> dirty;
    evaluate_dirty_visit(step, fn, dirty, config_.threads, stats);
    rebase_adopted(step, dirty.positions, std::move(dirty.results));
  }

  /// rebase() for a caller that already evaluated `step` as a candidate
  /// against the current state: adopts the candidate's recomputed slice
  /// instead of re-enumerating the ball. `positions` must be exactly the
  /// ascending dirty positions evaluate_dirty_visit reported for `step`,
  /// and results[i] the result of sources()[positions[i]] - the slices
  /// are trusted verbatim (this is how a deployment optimizer commits
  /// its winning candidate without paying its enumeration twice).
  void rebase_adopted(const Delta& step,
                      std::span<const std::size_t> positions,
                      std::vector<Result>&& results) {
    util::require(primed_, "SweepRunner::rebase_adopted: prime() first");
    util::require(positions.size() == results.size(),
                  "SweepRunner::rebase_adopted: positions/results mismatch");
    // Validate the step against the snapshot exactly like rebase() would
    // before touching the cache.
    const Delta composed = compose(state_, step);
    Overlay overlay(*base_);
    overlay.apply(composed);
    // The whole list is checked before any slot moves: a rejected call
    // leaves baseline() and state() as they were.
    for (std::size_t i = 0; i < positions.size(); ++i) {
      util::require(positions[i] < sources_.size() &&
                        (i == 0 || positions[i - 1] < positions[i]),
                    "SweepRunner::rebase_adopted: bad position list");
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      cache_[positions[i]] = std::move(results[i]);
    }
    state_ = composed;
  }

  /// Evaluates one scenario delta on top of state(): recomputes the
  /// sources whose invalidation ball membership makes them dirty (through
  /// evaluate_dirty_visit, on config().threads workers), reuses the cache
  /// for the rest, and invokes `visit(source_index, result)` for every
  /// source in order. The Result references are valid only during the
  /// visit.
  template <typename Fn, typename Visit>
  void evaluate_visit(const Delta& delta, const Fn& fn, Visit&& visit,
                      SweepStats* stats = nullptr) const {
    DirtySlice<Result> dirty;
    evaluate_dirty_visit(delta, fn, dirty, config_.threads, stats);
    std::size_t next = 0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (next < dirty.positions.size() && dirty.positions[next] == i) {
        visit(i, dirty.results[next++]);
      } else {
        visit(i, cache_[i]);
      }
    }
  }

  /// Dirty-slice evaluation that leaves the runner untouched, so many
  /// deltas can be evaluated against the same state concurrently: maps
  /// `fn(overlay, source)` over the dirty sources on up to `threads`
  /// workers (results stored by position), then invokes
  /// `visit(source_index, overlay, result)` serially on the calling
  /// thread, in source order - so the visit sequence never depends on
  /// the worker count. A candidate-parallel caller (the optimizer, which
  /// already fans out over candidates) passes 1; a single request (the
  /// serving engine's what-if) spreads its own ball. The overlay handed
  /// to `fn` and the visitor is the composed (state + delta) view.
  template <typename Fn, typename Visit>
  void evaluate_dirty_visit(const Delta& delta, const Fn& fn, Visit&& visit,
                            std::size_t threads,
                            SweepStats* stats = nullptr) const {
    util::require(primed_, "SweepRunner::evaluate_dirty_visit: prime() first");
    const obs::TraceSpan span("sweep.evaluate");
    const std::uint64_t start = detail::sweep_clock_ns();
    Overlay overlay(*base_);
    overlay.apply(state_.empty() ? delta : compose(state_, delta));
    const std::vector<AsId> ball = invalidation_ball(
        overlay, touched_ases(delta), config_.dirty_radius);
    std::vector<std::size_t> positions;
    std::vector<AsId> dirty;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      if (std::binary_search(ball.begin(), ball.end(), sources_[i])) {
        positions.push_back(i);
        dirty.push_back(sources_[i]);
      }
    }
    // Each dirty source is a whole enumeration, so two already pay for
    // a worker, as in prime(); map_indices' default threshold
    // (kMinParallelSources, 32, for cheap items) would leave all but hub
    // deltas serial.
    auto results = paths::map_sources(
        dirty, threads, [&](AsId src) { return fn(overlay, src); },
        /*min_parallel=*/2);
    for (std::size_t k = 0; k < positions.size(); ++k) {
      visit(positions[k], overlay, std::move(results[k]));
    }
    const std::size_t recomputed = positions.size();
    if (stats != nullptr) {
      stats->recomputed_sources = recomputed;
      stats->cached_sources = sources_.size() - recomputed;
      stats->ball_size = ball.size();
    }
    if constexpr (obs::enabled()) {
      detail::SweepMetrics& metrics = detail::sweep_metrics();
      metrics.recomputed_sources.add(recomputed);
      metrics.cached_sources.add(sources_.size() - recomputed);
      metrics.ball_size.record(ball.size());
      metrics.dirty_sources.record(recomputed);
      metrics.evaluate_ns.record(detail::sweep_clock_ns() - start);
    }
  }

  /// evaluate_visit materialized: the full per-source result vector of the
  /// scenario, in sources() order (cached slots copied).
  template <typename Fn>
  [[nodiscard]] std::vector<Result> evaluate(const Delta& delta,
                                             const Fn& fn,
                                             SweepStats* stats = nullptr) const {
    std::vector<Result> out;
    out.reserve(sources_.size());
    evaluate_visit(
        delta, fn,
        [&](std::size_t, const Result& result) { out.push_back(result); },
        stats);
    return out;
  }

 private:
  const CompiledTopology* base_;
  std::vector<AsId> sources_;
  SweepConfig config_;
  std::vector<Result> cache_;
  /// The composed delta cache_ holds results for (empty until rebase).
  Delta state_;
  bool primed_ = false;
};

}  // namespace panagree::scenario
