#include "panagree/serve/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>
#include <utility>

#include "panagree/obs/build_info.hpp"
#include "panagree/obs/metrics.hpp"
#include "panagree/obs/trace.hpp"

namespace panagree::serve {

namespace {

// Engine-level metrics (see README "Observability"). References cached
// once; every record is a relaxed add.
struct EngineMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& paths_cache_hits = reg.counter("engine.paths_cache_hits");
  obs::Counter& paths_cold = reg.counter("engine.paths_cold");
  obs::Counter& memo_hits = reg.counter("engine.whatif_memo_hits");
  obs::Counter& memo_shared = reg.counter("engine.whatif_memo_shared");
  obs::Counter& memo_unshared = reg.counter("engine.whatif_unshared");
  obs::Counter& rebases = reg.counter("engine.rebases");
  obs::Histogram& batch = reg.histogram("engine.whatif_batch");
  obs::Histogram& fold_ns = reg.histogram("engine.fold_ns");
  /// Heap bytes, by capacity, of the current state's cached path sets.
  obs::Gauge& path_cache_bytes = reg.gauge("engine.path_cache_bytes");
};

[[nodiscard]] EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

// Per-stage latency histograms the stage clock folds every request into
// (finish_request_observation). engine_cache/engine_sweep split the
// engine stage by which machinery served it.
struct StageMetrics {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& queue = reg.histogram("serve.stage_ns.queue");
  obs::Histogram& parse = reg.histogram("serve.stage_ns.parse");
  obs::Histogram& engine = reg.histogram("serve.stage_ns.engine");
  obs::Histogram& engine_cache =
      reg.histogram("serve.stage_ns.engine_cache");
  obs::Histogram& engine_sweep =
      reg.histogram("serve.stage_ns.engine_sweep");
  obs::Histogram& serialize = reg.histogram("serve.stage_ns.serialize");
  obs::Histogram& send = reg.histogram("serve.stage_ns.send");
  obs::Histogram& wall = reg.histogram("serve.stage_ns.wall");
};

[[nodiscard]] StageMetrics& stage_metrics() {
  static StageMetrics metrics;
  return metrics;
}

scenario::SourcePathSet enumerate(const scenario::Overlay& overlay,
                                  AsId src) {
  return scenario::enumerate_length3(overlay, src);
}

scenario::SharedPathSet enumerate_shared(const scenario::Overlay& overlay,
                                         AsId src) {
  return std::make_shared<const scenario::SourcePathSet>(
      scenario::enumerate_length3(overlay, src));
}

/// Wall clock of the prime phases. Not stage_now_ns: the readiness line
/// reports these even when the obs layer is compiled out.
[[nodiscard]] std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-request-kind counter + latency histogram (serve.requests.*,
/// serve.latency_ns.*).
struct RequestMetricsRef {
  obs::Counter& count;
  obs::Histogram& latency_ns;
};

RequestMetricsRef& request_metrics(RequestKind kind) {
  obs::Registry& reg = obs::Registry::global();
  static RequestMetricsRef paths{reg.counter("serve.requests.paths"),
                                 reg.histogram("serve.latency_ns.paths")};
  static RequestMetricsRef diversity{
      reg.counter("serve.requests.diversity"),
      reg.histogram("serve.latency_ns.diversity")};
  static RequestMetricsRef whatif{reg.counter("serve.requests.whatif"),
                                  reg.histogram("serve.latency_ns.whatif")};
  static RequestMetricsRef stats{reg.counter("serve.requests.stats"),
                                 reg.histogram("serve.latency_ns.stats")};
  static RequestMetricsRef slowlog{reg.counter("serve.requests.slowlog"),
                                   reg.histogram("serve.latency_ns.slowlog")};
  static RequestMetricsRef rebase{reg.counter("serve.requests.rebase"),
                                  reg.histogram("serve.latency_ns.rebase")};
  switch (kind) {
    case RequestKind::kPaths: return paths;
    case RequestKind::kDiversity: return diversity;
    case RequestKind::kWhatIf: return whatif;
    case RequestKind::kStats: return stats;
    case RequestKind::kSlowLog: return slowlog;
    case RequestKind::kRebase: return rebase;
  }
  return paths;  // unreachable
}

RequestMetricsRef& error_metrics() {
  obs::Registry& reg = obs::Registry::global();
  static RequestMetricsRef errors{reg.counter("serve.requests.errors"),
                                  reg.histogram("serve.latency_ns.errors")};
  return errors;
}

/// Order-insensitive key of a delta: the memo must batch "the same dirty
/// ball" however the client listed the links. Pair direction is kept for
/// added links (provider/customer roles) and normalized for removals
/// (undirected, like Overlay).
std::string canonical_delta_key(const scenario::Delta& delta) {
  std::vector<scenario::LinkChange> add = delta.add;
  std::sort(add.begin(), add.end(),
            [](const scenario::LinkChange& x, const scenario::LinkChange& y) {
              return std::tie(x.a, x.b, x.type) < std::tie(y.a, y.b, y.type);
            });
  std::vector<std::pair<AsId, AsId>> remove;
  remove.reserve(delta.remove.size());
  for (const auto& [x, y] : delta.remove) {
    remove.emplace_back(std::min(x, y), std::max(x, y));
  }
  std::sort(remove.begin(), remove.end());
  std::string key;
  for (const scenario::LinkChange& change : add) {
    key += '+';
    key += std::to_string(change.a);
    key += ',';
    key += std::to_string(change.b);
    key += change.type == topology::LinkType::kPeering ? 'p' : 't';
  }
  for (const auto& [x, y] : remove) {
    key += '-';
    key += std::to_string(x);
    key += ',';
    key += std::to_string(y);
  }
  return key;
}

[[nodiscard]] DiversityResult to_diversity_result(
    const scenario::SourceContribution& contribution) {
  DiversityResult result;
  result.grc_paths = contribution.grc_paths;
  result.ma_paths = contribution.ma_paths;
  result.grc_pairs = contribution.grc_pairs;
  result.ma_extra_pairs = contribution.ma_extra_pairs;
  result.mean_best_geodistance_km =
      contribution.km_pairs > 0
          ? contribution.km_sum /
                static_cast<double>(contribution.km_pairs)
          : 0.0;
  result.transit_fees = contribution.transit_fees;
  return result;
}

}  // namespace

/// The immutable unit the shared_mutex guards: one primed runner cache,
/// the overlay of its composed state, and the additive per-source
/// contributions that make whatif scoring an O(sources) splice. rebase()
/// copies, splices the step's dirty sources into the copy, and swaps -
/// readers keep old snapshots alive through the shared_ptr. The cached
/// path sets are shared between states, so a copy costs a pointer per
/// source.
struct QueryEngine::State {
  State(const topology::CompiledTopology& base, std::vector<AsId> sources,
        scenario::SweepConfig config)
      : runner(base, std::move(sources), config), overlay(base) {}

  scenario::SweepRunner<scenario::SharedPathSet> runner;
  scenario::Overlay overlay;
  scenario::SliceSum<scenario::SourceContribution> contribs;
  scenario::ScenarioMetrics metrics;

  /// Folds contribs/metrics from the runner's cache (prime only; a rebase
  /// splices) and returns the wall time it took. The per-source kernel
  /// fans out over the engine's workers; the total is then summed
  /// serially in source order, so the bytes never depend on the thread
  /// count.
  std::uint64_t refresh_contributions(
      const scenario::MetricsAggregator& aggregator,
      const EngineConfig& config) {
    const std::uint64_t start = steady_ns();
    contribs =
        aggregator.contributions(overlay, runner.baseline(), config.threads);
    metrics = scenario::finalize(contribs.total());
    const std::uint64_t fold_ns = steady_ns() - start;
    engine_metrics().fold_ns.record(fold_ns);
    return fold_ns;
  }

  /// Heap bytes, by capacity, of the cached path sets.
  [[nodiscard]] std::int64_t path_cache_bytes() const {
    std::size_t bytes = 0;
    for (const scenario::SharedPathSet& set : runner.baseline()) {
      bytes += set->heap_bytes();
    }
    return static_cast<std::int64_t>(bytes);
  }
};

QueryEngine::QueryEngine(const topology::CompiledTopology& base,
                         const geo::World* world,
                         const econ::Economy* economy,
                         std::vector<AsId> sources, EngineConfig config)
    : base_(&base),
      aggregator_(base, world, economy),
      scratch_pool_(aggregator_),
      sources_(std::move(sources)),
      config_(config) {
  source_index_.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    util::require(sources_[i] < base.num_ases(),
                  "QueryEngine: source out of range");
    source_index_.emplace(sources_[i], i);
  }
}

QueryEngine::~QueryEngine() = default;

PrimeTiming QueryEngine::prime() {
  const std::lock_guard<std::mutex> writer(rebase_mutex_);
  {
    const std::shared_lock<std::shared_mutex> lock(state_mutex_);
    if (state_ != nullptr) {
      return {};
    }
  }
  scenario::SweepConfig sweep;
  sweep.threads = config_.threads;
  sweep.dirty_radius = scenario::kLength3DirtyRadius;
  auto state = std::make_shared<State>(*base_, sources_, sweep);
  PrimeTiming timing;
  const std::uint64_t start = steady_ns();
  state->runner.prime(enumerate_shared);
  timing.enumerate_ns = steady_ns() - start;
  timing.fold_ns = state->refresh_contributions(aggregator_, config_);
  engine_metrics().path_cache_bytes.set(state->path_cache_bytes());
  const std::unique_lock<std::shared_mutex> lock(state_mutex_);
  state_ = std::move(state);
  return timing;
}

std::shared_ptr<const QueryEngine::State> QueryEngine::snapshot() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  util::require(state_ != nullptr, "QueryEngine: prime() first");
  return state_;
}

std::uint64_t QueryEngine::epoch() const {
  const std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return epoch_;
}

scenario::ScenarioMetrics QueryEngine::state_metrics() const {
  return snapshot()->metrics;
}

void QueryEngine::paths(AsId src, const PathsSink& sink) const {
  const std::shared_ptr<const State> state = snapshot();
  const auto it = source_index_.find(src);
  if (it != source_index_.end()) {
    engine_metrics().paths_cache_hits.increment();
    sink(*state->runner.baseline()[it->second]);
    return;
  }
  util::require(src < base_->num_ases(), "QueryEngine: source out of range");
  engine_metrics().paths_cold.increment();
  sink(enumerate(state->overlay, src));
}

void QueryEngine::paths(AsId src, const PathsSpanSink& sink) const {
  paths(src, [&](const scenario::SourcePathSet& sets) {
    std::vector<diversity::Length3Path> triples;
    triples.reserve(sets.grc().size() + sets.ma().size());
    triples.insert(triples.end(), sets.grc().begin(), sets.grc().end());
    triples.insert(triples.end(), sets.ma().begin(), sets.ma().end());
    const std::span<const diversity::Length3Path> all(triples);
    sink(all.first(sets.grc().size()), all.subspan(sets.grc().size()));
  });
}

DiversityResult QueryEngine::diversity(AsId src) const {
  const std::shared_ptr<const State> state = snapshot();
  const auto it = source_index_.find(src);
  if (it != source_index_.end()) {
    engine_metrics().paths_cache_hits.increment();
    return to_diversity_result(state->contribs.slices()[it->second]);
  }
  util::require(src < base_->num_ases(), "QueryEngine: source out of range");
  engine_metrics().paths_cold.increment();
  const scenario::SourcePathSet sets = enumerate(state->overlay, src);
  return to_diversity_result(
      scratch_pool_.contribution(state->overlay, sets));
}

WhatIfResult QueryEngine::compute_whatif(const State& state,
                                         const scenario::Delta& delta) const {
  // Only the dirty sources are enumerated and scored, on the engine's
  // workers (the contribution is most of a what-if's cost), then spliced
  // into the state's per-source contributions in source order.
  scenario::SweepStats stats;
  const scenario::ScenarioMetrics metrics =
      scenario::finalize(aggregator_.whatif_total(state.runner, state.contribs,
                                                  delta, scratch_pool_,
                                                  config_.threads, &stats));
  const scenario::MetricsDelta marginal =
      scenario::subtract(metrics, state.metrics);

  WhatIfResult result;
  result.paths_delta = marginal.paths;
  result.pairs_delta = marginal.pairs;
  result.mean_km_delta = marginal.mean_best_geodistance_km;
  result.fees_delta = marginal.transit_fees;
  result.utility = scenario::operator_utility(marginal, config_.weights);
  result.recomputed_sources = stats.recomputed_sources;
  result.cached_sources = stats.cached_sources;
  result.ball_size = stats.ball_size;
  return result;
}

WhatIfResult QueryEngine::whatif(const scenario::Delta& delta) const {
  std::shared_ptr<const State> state;
  std::uint64_t epoch = 0;
  {
    const std::shared_lock<std::shared_mutex> lock(state_mutex_);
    util::require(state_ != nullptr, "QueryEngine: prime() first");
    state = state_;
    epoch = epoch_;
  }
  if (config_.max_batch == 0) {
    engine_metrics().memo_unshared.increment();
    return compute_whatif(*state, delta);
  }

  const std::string key = canonical_delta_key(delta);
  std::shared_future<WhatIfResult> shared;
  std::promise<WhatIfResult> promise;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    const auto it = memo_.find(key);
    if (it != memo_.end() && it->second.epoch == epoch) {
      shared = it->second.future;
    } else if (it != memo_.end() || memo_.size() < config_.max_batch) {
      shared = promise.get_future().share();
      memo_[key] = MemoEntry{epoch, shared};
      owner = true;
    }
    // else: batch full - compute unshared below.
  }
  if (!owner && shared.valid()) {
    engine_metrics().memo_hits.increment();
    return shared.get();
  }
  if (!owner) {
    engine_metrics().memo_unshared.increment();
    return compute_whatif(*state, delta);
  }
  engine_metrics().memo_shared.increment();
  try {
    WhatIfResult result = compute_whatif(*state, delta);
    promise.set_value(result);
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::uint64_t QueryEngine::rebase(const scenario::Delta& step) {
  const std::lock_guard<std::mutex> writer(rebase_mutex_);
  const std::shared_ptr<const State> current = snapshot();
  // Only the step's dirty sources are enumerated and contributed, once,
  // on the engine's workers, while readers keep serving the current
  // state. A rejected step throws here, before anything changes.
  std::vector<std::size_t> positions;
  std::vector<scenario::SharedPathSet> sets;
  std::vector<scenario::SourceContribution> contribs;
  current->runner.evaluate_dirty_visit(
      step,
      [&](const scenario::Overlay& overlay, AsId src) {
        scenario::SharedPathSet set = enumerate_shared(overlay, src);
        const scenario::SourceContribution contribution =
            scratch_pool_.contribution(overlay, *set);
        return std::pair(std::move(set), contribution);
      },
      [&](std::size_t position, const scenario::Overlay&, auto fresh) {
        positions.push_back(position);
        sets.push_back(std::move(fresh.first));
        contribs.push_back(fresh.second);
      },
      config_.threads);
  // Copy-on-rebase: the copy shares every clean path set, and the dirty
  // slots are spliced in, their contributions summed in source order.
  auto next = std::make_shared<State>(*current);
  next->runner.rebase_adopted(step, positions, std::move(sets));
  next->contribs.adopt(positions, contribs);
  next->metrics = scenario::finalize(next->contribs.total());
  next->overlay.clear();
  next->overlay.apply(next->runner.state());
  engine_metrics().path_cache_bytes.set(next->path_cache_bytes());
  std::uint64_t epoch = 0;
  {
    const std::unique_lock<std::shared_mutex> lock(state_mutex_);
    state_ = std::move(next);
    epoch = ++epoch_;
  }
  engine_metrics().rebases.increment();
  flush_whatif_memo();
  return epoch;
}

void QueryEngine::flush_whatif_memo() const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  // The memo size at flush is the realized epoch batch: how many
  // distinct deltas shared this state generation.
  engine_metrics().batch.record(memo_.size());
  memo_.clear();
}

void QueryEngine::handle_line(std::string_view line, std::string& out,
                              RequestStages* stages) {
  RequestStages local;
  RequestStages& st = stages != nullptr ? *stages : local;
  st.start_ns = stage_now_ns();
  std::uint64_t id = 0;
  bool parsed = false;
  try {
    const Request request = parse_request(line, &id);
    const std::uint64_t parsed_ns = stage_now_ns();
    st.parse_ns = parsed_ns - st.start_ns;
    st.wire_id = request.id;
    st.slow_kind = static_cast<std::uint64_t>(request.kind);
    parsed = true;
    // Count the request before handling it, so a stats response
    // deterministically includes itself (the CI smoke asserts exact
    // counts for a scripted session).
    RequestMetricsRef& metrics = request_metrics(request.kind);
    metrics.count.increment();
    switch (request.kind) {
      case RequestKind::kPaths: {
        st.source = request.source;
        st.work = source_index_.contains(request.source)
                      ? EngineWork::kCache
                      : EngineWork::kSweep;
        // Serialization happens inside the engine sink (the set is only
        // valid during the call), so it is measured directly and
        // subtracted from the surrounding interval: engine + serialize
        // covers [parse end, response done) exactly.
        std::uint64_t serialize_ns = 0;
        paths(request.source, [&](const scenario::SourcePathSet& sets) {
          const std::uint64_t serialize_start = stage_now_ns();
          append_paths_response(out, request.id, request.source, sets);
          serialize_ns = stage_now_ns() - serialize_start;
        });
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = serialize_ns;
        st.engine_ns = done_ns - parsed_ns - serialize_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kDiversity: {
        st.source = request.source;
        st.work = source_index_.contains(request.source)
                      ? EngineWork::kCache
                      : EngineWork::kSweep;
        const DiversityResult result = diversity(request.source);
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_diversity_response(out, request.id, request.source, result);
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = done_ns - engine_done_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kWhatIf: {
        st.delta_links =
            request.delta.add.size() + request.delta.remove.size();
        st.work = EngineWork::kSweep;
        const WhatIfResult result = whatif(request.delta);
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_whatif_response(out, request.id, result);
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = done_ns - engine_done_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kStats: {
        // Latency recorded before the snapshot, so the histogram's count
        // matches the counter in the response it ships.
        metrics.latency_ns.record(stage_now_ns() - st.start_ns);
        obs::refresh_process_gauges();
        const std::uint64_t current_epoch = epoch();
        const obs::MetricsSnapshot snap = obs::snapshot_metrics();
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_stats_response(out, request.id,
                              obs::build_info().git_describe,
                              current_epoch, snap);
        st.serialize_ns = stage_now_ns() - engine_done_ns;
        break;
      }
      case RequestKind::kRebase: {
        st.delta_links =
            request.delta.add.size() + request.delta.remove.size();
        st.work = EngineWork::kSweep;
        const std::uint64_t new_epoch = rebase(request.delta);
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_rebase_response(out, request.id, new_epoch);
        const std::uint64_t done_ns = stage_now_ns();
        st.serialize_ns = done_ns - engine_done_ns;
        metrics.latency_ns.record(done_ns - st.start_ns);
        break;
      }
      case RequestKind::kSlowLog: {
        metrics.latency_ns.record(stage_now_ns() - st.start_ns);
        obs::SlowQueryLog& log = obs::SlowQueryLog::global();
        const std::vector<obs::SlowQueryRecord> entries = log.snapshot();
        const std::uint64_t engine_done_ns = stage_now_ns();
        st.engine_ns = engine_done_ns - parsed_ns;
        append_slowlog_response(out, request.id, log.threshold_ns(),
                                entries);
        st.serialize_ns = stage_now_ns() - engine_done_ns;
        break;
      }
    }
  } catch (const std::exception& e) {
    const std::uint64_t caught_ns = stage_now_ns();
    // Attribute the time up to the failure to the stage it died in:
    // parse failures to parse, everything later to engine.
    if (!parsed) {
      st.parse_ns = caught_ns - st.start_ns;
    } else {
      st.engine_ns = caught_ns - st.start_ns - st.parse_ns;
      st.serialize_ns = 0;
    }
    st.wire_id = id;
    st.slow_kind = kSlowKindError;
    st.work = EngineWork::kNone;
    RequestMetricsRef& errors = error_metrics();
    errors.count.increment();
    errors.latency_ns.record(caught_ns - st.start_ns);
    append_error_response(out, id, e.what());
    st.serialize_ns += stage_now_ns() - caught_ns;
  }
  if (stages == nullptr) {
    // --direct / in-process callers: no queue or send stages, finish
    // the observation here.
    finish_request_observation(st);
  }
}

void finish_request_observation(const RequestStages& st) {
  if constexpr (!obs::enabled()) {
    return;
  }
  StageMetrics& metrics = stage_metrics();
  metrics.queue.record(st.queue_ns());
  metrics.parse.record(st.parse_ns);
  metrics.engine.record(st.engine_ns);
  switch (st.work) {
    case EngineWork::kCache:
      metrics.engine_cache.record(st.engine_ns);
      break;
    case EngineWork::kSweep:
      metrics.engine_sweep.record(st.engine_ns);
      break;
    case EngineWork::kNone:
      break;
  }
  metrics.serialize.record(st.serialize_ns);
  metrics.send.record(st.send_ns);
  metrics.wall.record(st.wall_ns());

  obs::SlowQueryRecord record;
  record.wire_id = st.wire_id;
  record.kind = st.slow_kind;
  record.source = st.source;
  record.delta_links = st.delta_links;
  record.wall_ns = st.wall_ns();
  record.queue_ns = st.queue_ns();
  record.parse_ns = st.parse_ns;
  record.engine_ns = st.engine_ns;
  record.serialize_ns = st.serialize_ns;
  record.send_ns = st.send_ns;
  obs::SlowQueryLog::global().record(record);

  if (obs::trace_enabled()) {
    // The span tree: one root per request carrying the wire id, one
    // child per nonzero stage. Stage start offsets are the cumulative
    // sums of the stage durations (serialize interleaves with engine
    // inside the paths sink, so its own interval is approximated as
    // following the engine stage; durations stay exact).
    const std::uint64_t root_id = obs::trace_next_span_id();
    const std::uint64_t root_start =
        st.enqueue_ns != 0 ? st.enqueue_ns : st.start_ns;
    std::uint64_t cursor = root_start;
    const auto stage = [&](const char* name, std::uint64_t duration_ns) {
      if (duration_ns != 0) {
        obs::trace_record_span(
            name, cursor, cursor + duration_ns,
            obs::SpanArgs{obs::trace_next_span_id(), root_id, 0, false});
      }
      cursor += duration_ns;
    };
    stage("serve.stage.queue", st.queue_ns());
    stage("serve.stage.parse", st.parse_ns);
    stage("serve.stage.engine", st.engine_ns);
    stage("serve.stage.serialize", st.serialize_ns);
    stage("serve.stage.send", st.send_ns);
    obs::trace_record_span("serve.request", root_start, cursor,
                           obs::SpanArgs{root_id, 0, st.wire_id, true});
  }
}

}  // namespace panagree::serve
