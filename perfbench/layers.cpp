// The traced run's per-layer metrics. Three sources of timing, joined by
// wire id:
//   * the client's send -> receive time of each request (drive);
//   * the daemon's own spans (PANAGREE_TRACE): one serve.request root
//     per request with serve.stage.{queue,parse,engine,serialize,send}
//     children;
//   * an in-process replay of the same requests through the public calls
//     of each layer, on the same snapshot and source sample, timed around
//     every call.
// A layer's self time is its own span minus its children; the replay
// spans are kept in memory and written as a Chrome trace at the end.
#include <atomic>
#include <filesystem>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "check.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/program.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/wire.hpp"
#include "panagree/storage/snapshot.hpp"

namespace perfbench {

using namespace panagree;

namespace {

/// One request's stage durations (ns) from the daemon's span tree.
struct DaemonRequest {
  std::uint64_t wall = 0;
  std::uint64_t queue = 0;
  std::uint64_t parse = 0;
  std::uint64_t engine = 0;
  std::uint64_t serialize = 0;
  std::uint64_t send = 0;
};

[[nodiscard]] std::uint64_t parse_uint_at(const std::string& text,
                                          std::size_t at) {
  std::uint64_t value = 0;
  std::from_chars(text.data() + at, text.data() + text.size(), value);
  return value;
}

/// Chrome-trace microseconds with three decimals ("12.345") as ns.
[[nodiscard]] std::uint64_t parse_us_at(const std::string& text,
                                        std::size_t at) {
  std::uint64_t whole = 0;
  const char* end = text.data() + text.size();
  const auto [dot, ec] = std::from_chars(text.data() + at, end, whole);
  (void)ec;
  std::uint64_t frac = 0;
  if (dot < end && *dot == '.') {
    std::from_chars(dot + 1, std::min(dot + 4, end), frac);
  }
  return whole * 1000 + frac;
}

/// Scans the daemon's trace document (obs/trace.cpp writes one fixed
/// field order) into per-wire-id stage durations.
std::map<std::uint64_t, DaemonRequest> read_daemon_trace(
    const std::string& path, Errors& errors) {
  std::ifstream in(path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (text.empty()) {
    errors.add("the daemon wrote no trace to " + path);
    return {};
  }
  struct Stage {
    std::uint64_t parent;
    char stage;
    std::uint64_t dur;
  };
  std::map<std::uint64_t, std::uint64_t> root_wire;  // span id -> wire id
  std::map<std::uint64_t, DaemonRequest> by_wire;
  std::vector<Stage> stages;
  const std::string open = "{\"name\":\"";
  for (std::size_t at = text.find(open); at != std::string::npos;
       at = text.find(open, at + 1)) {
    const std::size_t name_begin = at + open.size();
    const std::size_t name_end = text.find('"', name_begin);
    const std::size_t close = text.find("}}", name_end);
    if (name_end == std::string::npos || close == std::string::npos) {
      errors.add("truncated daemon trace");
      break;
    }
    const std::string_view name(text.data() + name_begin,
                                name_end - name_begin);
    const std::size_t dur = text.find("\"dur\":", name_end);
    const std::size_t id = text.find("\"id\":", name_end);
    const std::size_t parent = text.find("\"parent\":", name_end);
    const std::size_t wire = text.find("\"wire_id\":", name_end);
    const std::uint64_t dur_ns = parse_us_at(text, dur + 6);
    if (name == "serve.request" && wire < close) {
      const std::uint64_t wire_id = parse_uint_at(text, wire + 10);
      root_wire[parse_uint_at(text, id + 5)] = wire_id;
      by_wire[wire_id].wall = dur_ns;
    } else if (name.rfind("serve.stage.", 0) == 0) {
      // queue, parse, engine, serialize by their first letter; send
      // (which shares serialize's) as 'n'.
      const std::string_view stage = name.substr(12);
      const char code = stage == "send" ? 'n' : stage[0];
      stages.push_back({parse_uint_at(text, parent + 9), code, dur_ns});
    }
    at = close;
  }
  for (const Stage& s : stages) {
    const auto root = root_wire.find(s.parent);
    if (root == root_wire.end()) {
      continue;
    }
    DaemonRequest& request = by_wire[root->second];
    switch (s.stage) {
      case 'q': request.queue = s.dur; break;
      case 'p': request.parse = s.dur; break;
      case 'e': request.engine = s.dur; break;
      case 's': request.serialize = s.dur; break;
      case 'n': request.send = s.dur; break;
    }
  }
  return by_wire;
}

/// In-process spans of the replay, written as a Chrome trace at the end.
class SpanLog {
 public:
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::uint64_t wire_id, int tid) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, wire_id, tid});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans_) {
      out << (first ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"ts\":" << static_cast<double>(s.start) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end - s.start) / 1e3
          << ",\"pid\":2,\"tid\":" << s.tid << ",\"args\":{\"wire_id\":"
          << s.wire_id << "}}";
      first = false;
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t wire_id;
    int tid;
  };
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Layer times (ns) of one replayed request. For a what-if: overlay and
/// splice/fold are the engine's own work, ball the sweep's, enumerate
/// the path engine's, contribute the metrics layer's.
struct Replay {
  const Record* record = nullptr;
  std::uint64_t parse = 0;
  std::uint64_t overlay = 0;
  std::uint64_t ball = 0;
  std::uint64_t enumerate = 0;
  std::uint64_t contribute = 0;
  std::uint64_t fold = 0;
  std::uint64_t engine = 0;
  std::uint64_t serialize = 0;
  std::uint64_t bytes = 0;
};

[[nodiscard]] double ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}
[[nodiscard]] double us(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e3;
}

/// Runs `work(i, tid)` for i in [0, n) on two threads.
template <typename Work>
void on_two_threads(std::size_t n, const Work& work) {
  std::atomic<std::size_t> next{0};
  const auto loop = [&](int tid) {
    for (std::size_t i = next++; i < n; i = next++) {
      work(i, tid);
    }
  };
  std::thread second(loop, 1);
  loop(0);
  second.join();
}

/// At most this many reads of a traced read workload are replayed, half
/// of each kind, evenly spaced over the run.
constexpr std::size_t kMaxReadReplays = 4000;

}  // namespace

void traced_layers(Workload workload, const std::string& snapshot,
                   const Stream& stream, const Phase& untraced,
                   const Phase& traced, const std::string& daemon_trace,
                   servecfg::ServeContext& context, double engine_prime_ms,
                   const std::vector<double>& rebase_ms, Errors& errors,
                   JsonObject& metrics, JsonObject& samples,
                   JsonObject& self_times) {
  const auto put = [&](const std::string& name,
                       const std::vector<double>& values, double p) {
    // A layer this workload never reaches reads 0, with 0 samples.
    metrics.number(name, values.empty() ? 0.0 : percentile(values, p));
    samples.integer(name, values.size());
  };
  const auto put_one = [&](const std::string& name, double value) {
    put(name, std::vector<double>{value}, 50);
  };
  SpanLog spans;
  const topology::CompiledTopology& base = context.net.compiled();
  const std::vector<topology::AsId>& sources = context.sources;

  // storage: mapping the snapshot.
  {
    const std::uint64_t start = now_ns();
    const storage::MappedSnapshot mapped =
        storage::MappedSnapshot::open(snapshot);
    const std::uint64_t end = now_ns();
    spans.add("storage.open", start, end, 0, 0);
    put_one("storage.open_ms", ms(end - start));
  }

  // paths + scenario.metrics: the two halves of priming, split.
  scenario::SweepConfig config;
  config.threads = 2;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(base, sources,
                                                        config);
  const auto enumerate = [](const scenario::Overlay& overlay,
                            topology::AsId src) {
    return scenario::enumerate_length3(overlay, src);
  };
  const std::uint64_t prime_start = now_ns();
  runner.prime(enumerate);
  const std::uint64_t prime_end = now_ns();
  std::uint64_t prime_paths = 0;
  for (const scenario::SourcePathSet& set : runner.baseline()) {
    prime_paths += set.grc().size() + set.ma().size();
  }
  const scenario::MetricsAggregator aggregator(base, &context.net.world(),
                                               &context.economy);
  std::vector<scenario::SourceContribution> contribs;
  scenario::SourceContribution baseline_total;
  const auto refold = [&](const scenario::Overlay& overlay) {
    contribs.clear();
    baseline_total = scenario::SourceContribution{};
    scenario::MetricsAggregator::Scratch scratch;
    for (const scenario::SourcePathSet& set : runner.baseline()) {
      contribs.push_back(aggregator.contribution(overlay, set, scratch));
      baseline_total += contribs.back();
    }
  };
  scenario::Overlay state_overlay(base);
  refold(state_overlay);
  const std::uint64_t fold_end = now_ns();
  const scenario::ScenarioMetrics baseline_metrics =
      scenario::finalize(baseline_total);
  spans.add("paths.prime_enumerate", prime_start, prime_end, 0, 0);
  spans.add("scenario.metrics.prime_fold", prime_end, fold_end, 0, 0);
  put_one("paths.prime_enumerate_ms", ms(prime_end - prime_start));
  metrics.integer("paths.prime_paths", prime_paths);
  samples.integer("paths.prime_paths", 1);
  put_one("scenario.metrics.prime_fold_ms", ms(fold_end - prime_end));
  put_one("scenario.metrics.ns_per_path",
          static_cast<double>(fold_end - prime_end) /
              static_cast<double>(std::max<std::uint64_t>(prime_paths, 1)));
  put_one("serve.engine.prime_ms", engine_prime_ms);

  const std::map<std::uint64_t, DaemonRequest> daemon =
      read_daemon_trace(daemon_trace, errors);

  // Replay the traced phase's requests.
  std::vector<Replay> whatifs;
  std::vector<Replay> reads;
  std::vector<const Record*> rebases;
  std::vector<const Record*> all_reads[2];  // paths, diversity
  for (const Record& r : traced.records) {
    if (!r.ok) {
      continue;
    }
    if (r.kind == 'w') {
      whatifs.push_back({&r});
    } else if (r.kind == 'r') {
      rebases.push_back(&r);
    } else {
      all_reads[r.kind == 'p' ? 0 : 1].push_back(&r);
    }
  }
  for (const std::vector<const Record*>& kind : all_reads) {
    const std::size_t stride = std::max<std::size_t>(
        1, (2 * kind.size() + kMaxReadReplays - 1) / kMaxReadReplays);
    for (std::size_t i = 0; i < kind.size(); i += stride) {
      reads.push_back({kind[i]});
    }
  }

  on_two_threads(whatifs.size(), [&](std::size_t i, int tid) {
    Replay& rp = whatifs[i];
    const Record& r = *rp.record;
    const std::string line = delta_request(r.id, "whatif", r.a, r.b);
    std::uint64_t t = now_ns();
    const serve::Request request = serve::parse_request(line);
    rp.parse = now_ns() - t;
    const scenario::Delta& delta = request.delta;
    const std::uint64_t start = now_ns();
    scenario::Overlay overlay(base);
    overlay.apply(delta);
    const std::uint64_t overlay_end = now_ns();
    const std::vector<topology::AsId> ball = scenario::invalidation_ball(
        overlay, scenario::touched_ases(delta),
        scenario::kLength3DirtyRadius);
    const std::uint64_t ball_end = now_ns();
    // The engine's evaluate_dirty_visit + splice, call by call: enumerate
    // and contribute each dirty source in source order, then fold.
    scenario::MetricsAggregator::Scratch scratch;
    std::vector<std::pair<std::size_t, scenario::SourceContribution>> fresh;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      if (!std::binary_search(ball.begin(), ball.end(), sources[s])) {
        continue;
      }
      t = now_ns();
      const scenario::SourcePathSet set = enumerate(overlay, sources[s]);
      const std::uint64_t enumerated = now_ns();
      fresh.emplace_back(s, aggregator.contribution(overlay, set, scratch));
      const std::uint64_t contributed = now_ns();
      rp.enumerate += enumerated - t;
      rp.contribute += contributed - enumerated;
    }
    const std::uint64_t visit_end = now_ns();
    scenario::SourceContribution total;
    std::size_t next = 0;
    for (std::size_t s = 0; s < contribs.size(); ++s) {
      if (next < fresh.size() && fresh[next].first == s) {
        total += fresh[next++].second;
      } else {
        total += contribs[s];
      }
    }
    const scenario::MetricsDelta marginal =
        scenario::subtract(scenario::finalize(total), baseline_metrics);
    const double utility =
        scenario::operator_utility(marginal, scenario::UtilityWeights{});
    const std::uint64_t end = now_ns();
    rp.overlay = overlay_end - start;
    rp.ball = ball_end - overlay_end;
    rp.fold = (end - visit_end) + (visit_end - ball_end - rp.enumerate -
                                   rp.contribute);
    rp.engine = end - start;
    spans.add("serve.engine.whatif", start, end, r.id, tid);
    spans.add("scenario.sweep.ball", overlay_end, ball_end, r.id, tid);
    std::string text;
    serve::append_json_double(text, utility);
    if (text != r.utility || ball.size() != r.ball ||
        fresh.size() != r.recomputed) {
      errors.add("in-process what-if " + std::to_string(r.id) +
                 " does not reproduce the daemon's answer (utility " + text +
                 " vs " + r.utility + ")");
    }
  });

  serve::QueryEngine& engine = *context.engines.front();
  on_two_threads(reads.size(), [&](std::size_t i, int tid) {
    Replay& rp = reads[i];
    const Record& r = *rp.record;
    const std::string line = source_request(
        r.id, r.kind == 'p' ? "paths" : "diversity", r.source);
    std::uint64_t t = now_ns();
    const serve::Request request = serve::parse_request(line);
    rp.parse = now_ns() - t;
    std::string out;
    const std::uint64_t start = now_ns();
    if (r.kind == 'p') {
      std::uint64_t serialize_start = 0;
      std::uint64_t serialize_end = 0;
      engine.paths(request.source,
                   [&](std::span<const diversity::Length3Path> grc,
                       std::span<const diversity::Length3Path> ma) {
                     serialize_start = now_ns();
                     serve::append_paths_response(out, request.id,
                                                  request.source, grc, ma);
                     serialize_end = now_ns();
                   });
      const std::uint64_t end = now_ns();
      rp.serialize = serialize_end - serialize_start;
      rp.engine = (end - start) - rp.serialize;
      spans.add("serve.wire.paths_serialize", serialize_start, serialize_end,
                r.id, tid);
    } else {
      const serve::DiversityResult result = engine.diversity(request.source);
      const std::uint64_t engine_end = now_ns();
      serve::append_diversity_response(out, request.id, request.source,
                                       result);
      rp.engine = engine_end - start;
      rp.serialize = now_ns() - engine_end;
    }
    rp.bytes = out.size();
    spans.add(r.kind == 'p' ? "serve.engine.paths" : "serve.engine.diversity",
              start, start + rp.engine, r.id, tid);
  });

  // The deployment program, split the way QueryEngine::rebase runs it:
  // the runner recomputes the step's dirty sources (ball + enumerate),
  // then every source's contribution is refolded over the new overlay.
  std::vector<double> rebase_enumerate_ms;
  std::vector<double> rebase_refold_ms;
  std::uint64_t rebase_recomputed = 0;
  std::uint64_t rebase_cached = 0;
  for (std::size_t step = 0; step < rebase_ms.size(); ++step) {
    scenario::Delta delta;
    delta.add.push_back({stream.deltas[step].first,
                         stream.deltas[step].second,
                         topology::LinkType::kPeering});
    scenario::SweepStats stats;
    const std::uint64_t start = now_ns();
    runner.rebase(delta, enumerate, &stats);
    const std::uint64_t enumerated = now_ns();
    state_overlay.clear();
    state_overlay.apply(runner.state());
    refold(state_overlay);
    const std::uint64_t end = now_ns();
    spans.add("paths.rebase_enumerate", start, enumerated, step + 1, 0);
    spans.add("scenario.metrics.rebase_refold", enumerated, end, step + 1,
              0);
    rebase_enumerate_ms.push_back(ms(enumerated - start));
    rebase_refold_ms.push_back(ms(end - enumerated));
    rebase_recomputed += stats.recomputed_sources;
    rebase_cached += stats.cached_sources;
  }

  // ---- per-layer metrics
  std::vector<double> enumerate_ms;
  std::vector<double> contribute_ms;
  std::vector<double> engine_whatif_ms;
  std::vector<double> ball_us;
  std::vector<double> ball_size;
  std::vector<double> dirty;
  std::uint64_t recomputed = rebase_recomputed;
  std::uint64_t cached = rebase_cached;
  for (const Replay& rp : whatifs) {
    enumerate_ms.push_back(ms(rp.enumerate));
    contribute_ms.push_back(ms(rp.contribute));
    engine_whatif_ms.push_back(ms(rp.engine));
    ball_us.push_back(us(rp.ball));
    ball_size.push_back(static_cast<double>(rp.record->ball));
    dirty.push_back(static_cast<double>(rp.record->recomputed));
    recomputed += rp.record->recomputed;
    cached += rp.record->cached;
  }
  put("paths.whatif_enumerate_p50_ms", enumerate_ms, 50);
  put("paths.whatif_enumerate_p95_ms", enumerate_ms, 95);
  put("scenario.sweep.ball_p50_us", ball_us, 50);
  put("scenario.sweep.ball_size_p50", ball_size, 50);
  put("scenario.sweep.ball_size_p95", ball_size, 95);
  put("scenario.sweep.dirty_sources_p50", dirty, 50);
  put("scenario.sweep.dirty_sources_p95", dirty, 95);
  metrics.number("scenario.sweep.reuse_ratio",
                 recomputed + cached == 0
                     ? 0.0
                     : static_cast<double>(cached) /
                           static_cast<double>(recomputed + cached));
  samples.integer("scenario.sweep.reuse_ratio", recomputed + cached);
  put("scenario.metrics.whatif_contribution_p50_ms", contribute_ms, 50);
  put("scenario.metrics.whatif_contribution_p95_ms", contribute_ms, 95);
  put("scenario.metrics.rebase_refold_ms", rebase_refold_ms, 50);
  put("serve.engine.whatif_p50_ms", engine_whatif_ms, 50);
  put("serve.engine.whatif_p95_ms", engine_whatif_ms, 95);

  std::vector<double> engine_us[2];
  std::vector<double> parse_us;
  std::vector<double> serialize_us;
  std::vector<double> paths_bytes;
  std::vector<double> blocked_ms;
  for (const Replay& rp : reads) {
    const bool is_paths = rp.record->kind == 'p';
    engine_us[is_paths ? 0 : 1].push_back(us(rp.engine));
    parse_us.push_back(us(rp.parse));
    if (is_paths) {
      serialize_us.push_back(us(rp.serialize));
      paths_bytes.push_back(static_cast<double>(rp.bytes));
    }
    // How long the daemon held the read beyond its own work. While a
    // rebase holds the router barrier one worker's read blocks inside
    // its engine stage and the reads behind it wait in the queue, so
    // both count.
    const auto d = daemon.find(rp.record->id);
    if (workload == Workload::kRebaseRead && d != daemon.end()) {
      const std::uint64_t held = d->second.queue + d->second.engine;
      blocked_ms.push_back(ms(held > rp.engine ? held - rp.engine : 0));
    }
  }
  for (const Replay& rp : whatifs) {
    parse_us.push_back(us(rp.parse));
  }
  put("serve.engine.paths_p50_us", engine_us[0], 50);
  put("serve.engine.diversity_p50_us", engine_us[1], 50);
  const std::uint64_t memo_hits =
      counter_value(traced.stats, "engine.whatif_memo_hits");
  const std::uint64_t memo_all =
      memo_hits + counter_value(traced.stats, "engine.whatif_memo_shared") +
      counter_value(traced.stats, "engine.whatif_unshared");
  metrics.number("serve.engine.memo_hit_ratio",
                 memo_all == 0 ? 0.0
                               : static_cast<double>(memo_hits) /
                                     static_cast<double>(memo_all));
  samples.integer("serve.engine.memo_hit_ratio", memo_all);
  put("serve.router.rebase_p50_ms", rebase_ms, 50);
  put("serve.router.read_blocked_p95_ms", blocked_ms, 95);
  put("serve.wire.parse_p50_us", parse_us, 50);
  put("serve.wire.paths_serialize_p50_us", serialize_us, 50);
  put("serve.wire.paths_bytes", paths_bytes, 50);

  // serve.server: the daemon's queue and send stages, and transport -
  // the client's latency minus the daemon's wall time for the request.
  std::vector<double> queue_us;
  std::vector<double> send_us;
  std::map<char, std::vector<double>> transport_us;
  for (const Record& r : traced.records) {
    const auto d = daemon.find(r.id);
    if (!r.ok || d == daemon.end()) {
      continue;
    }
    const std::uint64_t latency = r.received - r.sent;
    queue_us.push_back(us(d->second.queue));
    send_us.push_back(us(d->second.send));
    transport_us[r.kind].push_back(
        us(latency > d->second.wall ? latency - d->second.wall : 0));
  }
  put("serve.server.queue_p50_us", queue_us, 50);
  put("serve.server.queue_p95_us", queue_us, 95);
  put("serve.server.send_p50_us", send_us, 50);
  put("serve.server.transport_paths_p50_us", transport_us['p'], 50);
  put("serve.server.transport_diversity_p50_us", transport_us['d'], 50);
  put("serve.server.transport_whatif_p50_us", transport_us['w'], 50);
  metrics.integer("serve.server.queue_depth_hwm",
                  static_cast<std::uint64_t>(std::max<std::int64_t>(
                      0, gauge_value(traced.stats,
                                     "server.queue_depth_hwm"))));
  samples.integer("serve.server.queue_depth_hwm", 1);
  std::uint64_t failed = counter_value(traced.stats, "server.send_drops") +
                         counter_value(traced.stats, "server.oversize_drops");
  for (const Record& r : traced.records) {
    failed += r.ok ? 0 : 1;
  }
  metrics.integer("serve.server.failed", failed);
  samples.integer("serve.server.failed", traced.records.size());

  // obs: what tracing costs, on the workload's headline p50.
  const char headline = workload == Workload::kWhatIfScan   ? 'w'
                        : workload == Workload::kLookupRead ? 'p'
                                                            : 'r';
  std::vector<double> before;
  std::vector<double> after;
  for (const Record& r : untraced.records) {
    if (r.kind == headline) {
      before.push_back(r.latency_ms());
    }
  }
  for (const Record& r : traced.records) {
    if (r.kind == headline) {
      after.push_back(r.latency_ms());
    }
  }
  const double p50_before = percentile(before, 50);
  metrics.number("obs.trace_overhead_pct",
                 before.empty() || after.empty()
                     ? 0.0
                     : (percentile(after, 50) - p50_before) / p50_before *
                           100.0);
  samples.integer("obs.trace_overhead_pct", std::min(before.size(),
                                                     after.size()));

  // How much of each kind's end-to-end p50 the layer self times explain:
  // per request, transport + queue + parse + serialize + send from the
  // daemon, plus the engine work replayed in-process; the share is the
  // p50 of that sum over the p50 of the client latency, both over the
  // replayed requests. What the replay cannot see (a read blocked on the
  // rebase barrier, workers contending for cores) is what is left over.
  struct Shares {
    std::vector<double> explained;
    std::vector<double> latency;
    std::map<std::string, std::vector<double>> self;
  };
  std::map<char, Shares> shares;
  const auto account = [&](const Record& r, std::uint64_t engine_ns,
                           const std::map<std::string, std::uint64_t>&
                               engine_layers) {
    const auto d = daemon.find(r.id);
    if (d == daemon.end()) {
      return;
    }
    const DaemonRequest& q = d->second;
    const std::uint64_t latency = r.received - r.sent;
    const std::uint64_t transport = latency > q.wall ? latency - q.wall : 0;
    Shares& s = shares[r.kind];
    s.latency.push_back(static_cast<double>(latency));
    s.explained.push_back(static_cast<double>(transport + q.queue + q.parse +
                                              q.serialize + q.send +
                                              engine_ns));
    s.self["serve.server"].push_back(us(transport + q.queue + q.send));
    s.self["serve.wire"].push_back(us(q.parse + q.serialize));
    for (const auto& [layer, ns] : engine_layers) {
      s.self[layer].push_back(us(ns));
    }
  };
  for (const Replay& rp : whatifs) {
    account(*rp.record, rp.engine,
            {{"serve.engine", rp.overlay + rp.fold},
             {"scenario.sweep", rp.ball},
             {"paths", rp.enumerate},
             {"scenario.metrics", rp.contribute}});
  }
  for (const Replay& rp : reads) {
    account(*rp.record, rp.engine, {{"serve.engine", rp.engine}});
  }
  for (const Record* r : rebases) {
    const std::size_t step = r->id - 1;
    if (step >= rebase_ms.size()) {
      continue;
    }
    const auto total_ns = static_cast<std::uint64_t>(rebase_ms[step] * 1e6);
    const auto enumerate_ns =
        static_cast<std::uint64_t>(rebase_enumerate_ms[step] * 1e6);
    const auto refold_ns =
        static_cast<std::uint64_t>(rebase_refold_ms[step] * 1e6);
    account(*r, total_ns,
            {{"serve.router",
              total_ns > enumerate_ns + refold_ns
                  ? total_ns - enumerate_ns - refold_ns
                  : 0},
             {"paths", enumerate_ns},
             {"scenario.metrics", refold_ns}});
  }
  for (const char kind : {'w', 'p', 'd', 'r'}) {
    const std::string name = std::string("obs.explained_") +
                             (kind == 'w'   ? "whatif"
                              : kind == 'p' ? "paths"
                              : kind == 'd' ? "diversity"
                                            : "rebase") +
                             "_pct";
    const Shares& s = shares[kind];
    metrics.number(name, s.latency.empty()
                             ? 0.0
                             : percentile(s.explained, 50) /
                                   percentile(s.latency, 50) * 100.0);
    samples.integer(name, s.latency.size());
    if (!s.latency.empty()) {
      JsonObject layers;
      layers.number("end_to_end", percentile(s.latency, 50) / 1e3);
      for (const auto& [layer, values] : s.self) {
        layers.number(layer, percentile(values, 50));
      }
      self_times.object(name.substr(14, name.size() - 18), layers);
    }
  }

  for (const Record& r : traced.records) {
    spans.add("client.request", r.sent, r.received, r.id, 2);
  }
  spans.write(std::filesystem::path(daemon_trace)
                  .replace_filename("replay-trace.json")
                  .string());
}

}  // namespace perfbench
