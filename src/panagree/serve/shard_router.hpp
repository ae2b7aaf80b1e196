// The sharded serving front end: one ShardRouter owns N QueryEngine
// shards, each primed over a contiguous range of the canonical source
// sample, and presents exactly the single-engine wire surface.
//
// Routing: `paths`/`diversity` go to the shard owning the source (cold -
// unsampled - sources go to shard 0; every shard serves any state-wide
// query, ownership only decides whose cache answers). `whatif` fans
// across all shards: each shard evaluates the delta over its own source
// range through QueryEngine::whatif_slice (the documented epoch-batch
// seam), and the router splices the per-source SourceContribution slices
// back together in canonical source order before running the
// finalize/subtract/utility fold once. The in-order fold is what makes an
// N-shard response byte-identical to the 1-shard one - floating-point
// addition is order-sensitive, so per-shard partial sums would round
// differently.
//
// Epoch coherence: the router exposes one epoch for the whole fleet. The
// admin `rebase` wire kind applies the delta to every shard under a
// single epoch barrier (a shared_mutex: readers hold it shared for the
// duration of a request, rebase holds it exclusive across the per-shard
// rebases, the baseline re-fold, and the epoch bump), so a reader can
// never observe shard A answering from the new topology while shard B
// still answers from the old one.
//
// What-if memoization happens at the router (same canonical-delta key,
// epoch check, and max_batch bound as the engine's memo); the per-shard
// engine memos are bypassed by whatif_slice.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "panagree/serve/query_engine.hpp"

namespace panagree::serve {

struct RouterConfig {
  /// Bound on memoized what-if evaluations per epoch (see EngineConfig).
  std::size_t max_batch = 256;
  /// Scoring weights of whatif utilities; must match the shards' weights
  /// (the router runs the utility fold, the shards never score).
  scenario::UtilityWeights weights;
};

class ShardRouter {
 public:
  /// `shards` are the owned-by-caller engines, in partition order: the
  /// concatenation of their sources() must be the canonical sample, and
  /// every source must appear in exactly one shard. The engines must
  /// outlive the router. Prime the shards, then call refresh_baseline()
  /// before serving.
  ShardRouter(std::vector<QueryEngine*> shards, RouterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  /// The canonical source sample (all shards concatenated).
  [[nodiscard]] const std::vector<AsId>& sources() const { return sources_; }
  /// The fleet-wide epoch: bumped by every rebase(), never mixed.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Recomputes the router's global baseline fold from the shards'
  /// current states and publishes the per-shard epoch gauges. Call once
  /// after priming the shards; rebase() keeps it fresh afterwards.
  void refresh_baseline();

  /// Single-engine API shape, routed (see header comment). All throw
  /// util::PreconditionError like QueryEngine for out-of-range sources /
  /// unprimed shards.
  void paths(AsId src, const QueryEngine::PathsSink& sink) const;
  [[nodiscard]] DiversityResult diversity(AsId src) const;
  [[nodiscard]] WhatIfResult whatif(const scenario::Delta& delta) const;

  /// Applies `step` to every shard under the epoch barrier and returns
  /// the new fleet epoch. Readers never observe a partial application.
  std::uint64_t rebase(const scenario::Delta& step);

  /// Drops the router's memoized what-if evaluations so the next
  /// request re-runs the sharded fan-out - benchmark support, the
  /// router-level twin of QueryEngine::flush_whatif_memo().
  void flush_whatif_memo() const;

  /// Parses one request line, dispatches it, and appends the
  /// newline-terminated response: the router's twin of
  /// QueryEngine::handle_line, plus the `rebase` admin kind. Same
  /// byte-identity and stage-clock contract.
  void handle_line(std::string_view line, std::string& out,
                   RequestStages* stages = nullptr);

 private:
  struct ShardObs;

  [[nodiscard]] WhatIfResult compute_whatif(
      const scenario::Delta& delta) const;
  /// paths/diversity routing: the owning shard of a sampled source,
  /// shard 0 for cold sources.
  [[nodiscard]] std::size_t shard_of(AsId src) const;

  std::vector<QueryEngine*> shards_;
  std::vector<AsId> sources_;
  std::unordered_map<AsId, std::size_t> source_shard_;
  RouterConfig config_;

  /// The epoch barrier: requests hold it shared, rebase exclusive.
  mutable std::shared_mutex barrier_mutex_;
  std::uint64_t epoch_ = 0;
  bool primed_ = false;
  /// finalize() of the in-order fold over all shards' baseline
  /// contributions - the subtract() reference of whatif scoring.
  scenario::ScenarioMetrics baseline_metrics_;

  struct MemoEntry {
    std::uint64_t epoch = 0;
    std::shared_future<WhatIfResult> future;
  };
  mutable std::mutex memo_mutex_;
  mutable std::unordered_map<std::string, MemoEntry> memo_;

  /// Per-shard request counters + epoch gauges (shard.<i>.*), feeding
  /// panagree-top's per-shard columns.
  std::unique_ptr<ShardObs> obs_;
};

}  // namespace panagree::serve
