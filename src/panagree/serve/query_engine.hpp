// The serving layer's query engine: a long-running, thread-safe front end
// over one topology snapshot and one primed scenario::SweepRunner - the
// one dispatcher behind panagree-serve and panagree-query --direct.
//
// Every batch tool in this repo loads, enumerates, prints, and exits; the
// engine keeps the expensive state resident and answers its request
// kinds out of it:
//
//   * paths      - the §VI GRC + MA length-3 path sets of a source.
//                  Sampled sources are served zero-copy: the runner's
//                  cached scenario::SourcePathSet goes to the sink and
//                  is serialized straight out of its hop runs; other
//                  sources are enumerated on the fly (cold).
//   * diversity  - the per-source diversity / geodistance / fee
//                  aggregate (scenario::SourceContribution, finalized).
//   * whatif     - score a candidate link delta against the current
//                  state: only the sources inside the delta's
//                  invalidation ball are re-enumerated (the SweepRunner
//                  machinery), never a full recompute, and their
//                  contributions are spliced into the state's cached
//                  ones (scenario::SliceSum, through
//                  MetricsAggregator::whatif_total - the same call
//                  panagree-sweep ranks with). The dirty sources are
//                  enumerated and scored on up to EngineConfig::threads
//                  workers, results kept by position and summed in
//                  source order, so the bytes never depend on the thread
//                  count.
//   * rebase     - commit a deployment step (copy-on-rebase, below) and
//                  answer the new epoch.
//
// Concurrency model: read-mostly. The engine state (runner cache,
// per-source contributions, baseline metrics) lives behind a
// std::shared_mutex as an immutable shared_ptr snapshot; readers take the
// shared lock only long enough to copy the pointer and then work lock-free
// on their snapshot. rebase() (committing a deployment program step) is
// copy-on-rebase: it clones the state, folds the step into the clone's
// cache (recomputing only the step's invalidation ball), and swaps the
// pointer and bumps the epoch under the exclusive lock - in-flight
// readers keep their old snapshot alive, so readers never block on a
// rebase and every request is answered wholly from one epoch.
//
// Epoch batching: concurrent whatif requests for the same delta share one
// enumeration. The first requester installs a shared future keyed by the
// canonical delta; later requesters (same epoch) wait on it instead of
// re-walking the dirty ball. rebase() bumps the epoch and drops the memo
// - cached scores are only ever served against the state they were
// computed on. The memo is bounded (max_batch): past the cap requests
// compute unshared rather than grow memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "panagree/econ/business.hpp"
#include "panagree/obs/metrics.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/wire.hpp"

namespace panagree::serve {

/// The stage clock's time source: steady-clock nanoseconds when the obs
/// layer is live, constant 0 under PANAGREE_OBS_OFF - which collapses
/// every stage duration to zero and makes the whole per-request clock a
/// no-op without a single branch in the instrumented code.
[[nodiscard]] inline std::uint64_t stage_now_ns() noexcept {
  if constexpr (obs::enabled()) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  } else {
    return 0;
  }
}

/// Which engine machinery served a request's engine stage - the
/// sweep/cache sub-attribution folded into the per-stage histograms
/// (serve.stage_ns.engine_cache vs serve.stage_ns.engine_sweep).
enum class EngineWork : std::uint8_t {
  kNone,   // introspection kinds (stats, slowlog) and failed requests
  kCache,  // served out of the primed per-source cache
  kSweep,  // went through enumeration / the incremental sweep
};

/// Per-request stage clock, threaded from accept to send. handle_line
/// fills parse/engine/serialize and the request identity; the server
/// supplies enqueue_ns before the call and send_ns after, then hands the
/// record to finish_request_observation. The five stage durations sum to
/// wall_ns() by construction: serialization that happens inside an
/// engine sink (the paths response) is measured directly and subtracted
/// from the surrounding engine interval, so no nanosecond is counted
/// twice or dropped.
struct RequestStages {
  /// Server reader's enqueue timestamp (stage_now_ns clock); 0 means no
  /// queue stage (--direct calls).
  std::uint64_t enqueue_ns = 0;
  /// handle_line entry timestamp (set by handle_line).
  std::uint64_t start_ns = 0;
  std::uint64_t parse_ns = 0;
  std::uint64_t engine_ns = 0;
  std::uint64_t serialize_ns = 0;
  /// Socket write duration (set by the server after send_all; 0 for
  /// --direct).
  std::uint64_t send_ns = 0;

  std::uint64_t wire_id = 0;
  /// Wire slow-kind code (RequestKind value, or kSlowKindError).
  std::uint64_t slow_kind = 0;
  std::uint64_t source = 0;
  std::uint64_t delta_links = 0;
  EngineWork work = EngineWork::kNone;

  /// Queue wait: handle start minus enqueue (0 without a queue stage).
  [[nodiscard]] std::uint64_t queue_ns() const noexcept {
    return enqueue_ns != 0 && start_ns > enqueue_ns
               ? start_ns - enqueue_ns
               : 0;
  }

  /// Total attributed wall time: the exact sum of the five stages.
  [[nodiscard]] std::uint64_t wall_ns() const noexcept {
    return queue_ns() + parse_ns + engine_ns + serialize_ns + send_ns;
  }
};

/// Folds a completed request's stage clock into the per-stage
/// histograms (serve.stage_ns.*), offers it to the slow-query ring
/// (obs::SlowQueryLog::global()), and - when PANAGREE_TRACE is live -
/// records its span tree: one "serve.request" root span carrying the
/// wire id, one "serve.stage.*" child span per nonzero stage. Called by
/// the server worker after the response bytes are on the socket (so a
/// slowlog response never contains its own request) and by handle_line
/// itself for --direct calls.
void finish_request_observation(const RequestStages& stages);

struct EngineConfig {
  /// Worker threads of the per-source fan-outs (0 = one per allowed
  /// cpu): prime()/rebase() path enumeration and contribution refold,
  /// and the dirty sources of one what-if. Everything else a request
  /// does runs on the caller's thread.
  std::size_t threads = 0;
  /// Bound on memoized what-if evaluations per epoch (the epoch batch):
  /// concurrent identical requests share one enumeration up to this many
  /// distinct deltas; past the cap, requests compute unshared.
  std::size_t max_batch = 256;
  /// Scoring weights of whatif utilities.
  scenario::UtilityWeights weights;
};

/// Wall time of one prime, split into its two phases: enumerating the
/// sampled sources' path sets and folding their contributions.
struct PrimeTiming {
  std::uint64_t enumerate_ns = 0;
  std::uint64_t fold_ns = 0;

  PrimeTiming& operator+=(const PrimeTiming& other) {
    enumerate_ns += other.enumerate_ns;
    fold_ns += other.fold_ns;
    return *this;
  }
};

class QueryEngine {
 public:
  /// `base` is the served snapshot; `world`/`economy` feed the
  /// geodistance/fee aggregates (nullptr disables them, like
  /// MetricsAggregator). `sources` is the cached sample - every other
  /// source is served cold. All referenced objects must outlive the
  /// engine. Call prime() before serving.
  QueryEngine(const topology::CompiledTopology& base,
              const geo::World* world, const econ::Economy* economy,
              std::vector<AsId> sources, EngineConfig config = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Enumerates and caches the baseline of every sampled source, then
  /// folds its per-source contributions (the one-time cost of a cold
  /// start). Returns the wall time of both phases. Idempotent: an
  /// already-primed engine returns zero times.
  PrimeTiming prime();

  [[nodiscard]] const std::vector<AsId>& sources() const { return sources_; }
  /// Bumped by every rebase(); whatif memo entries never cross epochs.
  [[nodiscard]] std::uint64_t epoch() const;
  /// Aggregate metrics of the current state over the sampled sources.
  [[nodiscard]] scenario::ScenarioMetrics state_metrics() const;

  /// Serves the GRC + MA path sets of `src` to `sink`. The set is valid
  /// only during the call (the engine's cached set for sampled sources,
  /// a local enumeration otherwise). Throws util::PreconditionError for
  /// out-of-range sources.
  using PathsSink = std::function<void(const scenario::SourcePathSet&)>;
  void paths(AsId src, const PathsSink& sink) const;

  /// perfbench's binding (its layer replay): paths() with the sets
  /// copied out into {src, mid, dst} triples on every call, kept until
  /// perfbench calls the set-sink overload above. Serve through that one.
  using PathsSpanSink =
      std::function<void(std::span<const diversity::Length3Path> grc,
                         std::span<const diversity::Length3Path> ma)>;
  void paths(AsId src, const PathsSpanSink& sink) const;

  /// Per-source diversity / geodistance / fee aggregate of `src` under
  /// the current state.
  [[nodiscard]] DiversityResult diversity(AsId src) const;

  /// Scores `delta` against the current state (see the header comment).
  /// Throws util::PreconditionError for deltas the state overlay rejects.
  [[nodiscard]] WhatIfResult whatif(const scenario::Delta& delta) const;

  /// Folds a committed deployment step into the served state
  /// (copy-on-rebase; see the header comment) and returns the new epoch.
  /// Readers are never blocked for the duration of the recompute, only
  /// for the pointer swap. A step the state overlay rejects throws
  /// util::PreconditionError and leaves state and epoch unchanged.
  std::uint64_t rebase(const scenario::Delta& step);

  /// Drops the what-if memo without changing state - lets benches and
  /// tests measure the unshared evaluation cost.
  void flush_whatif_memo() const;

  /// Parses one request line, dispatches it, and appends the
  /// newline-terminated response to `out`: the single entry point shared
  /// by the server workers and the client's --direct mode, which is what
  /// makes their bytes identical. Thread-safe; a `rebase` line commits
  /// through rebase(). Never throws: malformed requests and engine
  /// rejections become error responses (id 0 when the line was too
  /// broken to carry one).
  ///
  /// Stage clock: when `stages` is non-null the parse/engine/serialize
  /// durations and request identity are written into it and observation
  /// is left to the caller (the server finishes after send); when null,
  /// the request is finished here with no queue/send stages (--direct).
  void handle_line(std::string_view line, std::string& out,
                   RequestStages* stages = nullptr);

 private:
  struct State;

  [[nodiscard]] std::shared_ptr<const State> snapshot() const;
  [[nodiscard]] WhatIfResult compute_whatif(
      const State& state, const scenario::Delta& delta) const;

  const topology::CompiledTopology* base_;
  scenario::MetricsAggregator aggregator_;
  std::vector<AsId> sources_;
  /// sources_[source_index_[src]] == src, for the cache fast path.
  std::unordered_map<AsId, std::size_t> source_index_;
  EngineConfig config_;

  mutable std::shared_mutex state_mutex_;
  std::shared_ptr<const State> state_;
  /// Updated together with state_ under the exclusive lock.
  std::uint64_t epoch_ = 0;
  /// Serializes writers (rebase/prime); never held while readers wait.
  std::mutex rebase_mutex_;

  struct MemoEntry {
    std::uint64_t epoch = 0;
    std::shared_future<WhatIfResult> future;
  };
  mutable std::mutex memo_mutex_;
  mutable std::unordered_map<std::string, MemoEntry> memo_;
};

}  // namespace panagree::serve
