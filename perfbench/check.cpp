// `check`: runs after the daemon has stopped. Verifies every answer the
// drive phases recorded, replays the golden subset in-process the way
// panagree-query --direct builds its answers (tools/serve_common.hpp),
// computes the end-to-end metrics, and for a traced run the per-layer
// metrics (layers.cpp). Prints one JSON object.
#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "check.hpp"
#include "panagree/serve/wire.hpp"
#include "common.hpp"

namespace perfbench {

using namespace panagree;

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const obs::CounterSample& counter : snap.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

std::int64_t gauge_value(const obs::MetricsSnapshot& snap,
                         const std::string& name) {
  for (const obs::GaugeSample& gauge : snap.gauges) {
    if (gauge.name == name) {
      return gauge.value;
    }
  }
  return 0;
}

namespace {

Phase read_phase(const std::string& dir, Errors& errors) {
  Phase phase;
  phase.records = read_records(dir + "/records.txt");
  std::ifstream golden(dir + "/golden.txt");
  std::string request;
  std::string answer;
  while (std::getline(golden, request) && std::getline(golden, answer)) {
    phase.golden.emplace_back(std::move(request), std::move(answer));
  }
  std::ifstream summary(dir + "/summary.txt");
  std::string key;
  while (summary >> key) {
    if (key == "wall_s") {
      summary >> phase.wall_s;
    } else if (key == "late_p95_ms") {
      summary >> phase.late_p95_ms;
    } else if (key == "late_max_ms") {
      summary >> phase.late_max_ms;
    } else if (key == "exhausted") {
      summary >> phase.exhausted;
    } else {
      std::string ignored;
      summary >> ignored;
    }
  }
  std::ifstream stats_file(dir + "/stats.txt");
  std::string stats;
  std::getline(stats_file, stats);
  try {
    phase.stats = serve::parse_stats_response(stats).metrics;
    phase.stats_ok = true;
  } catch (const std::exception&) {
    errors.add("stats scrape failed: " + stats.substr(0, 200));
  }
  if (phase.exhausted) {
    errors.add("the run used up its request stream before the deadline");
  }
  return phase;
}

[[nodiscard]] std::string kind_name(char kind) {
  switch (kind) {
    case 'w': return "whatif";
    case 'p': return "paths";
    case 'd': return "diversity";
    case 'r': return "rebase";
  }
  return "unknown";
}

/// Per-epoch (grc, ma) path counts of every sampled source, from the
/// in-process replay of the deployment program (rebase_read).
using EpochCounts =
    std::map<std::uint32_t, std::set<std::pair<std::uint64_t, std::uint64_t>>>;

/// The checks that need no replay, plus the per-kind request accounting.
void check_answers(Workload workload, const Phase& phase,
                   std::size_t n_sources, const EpochCounts& epoch_counts,
                   Errors& errors,
                   std::map<std::string, std::array<std::uint64_t, 3>>&
                       counts) {
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> first;
  std::uint64_t expected_epoch = 1;
  for (const Record& r : phase.records) {
    std::array<std::uint64_t, 3>& kind = counts[kind_name(r.kind)];
    ++kind[0];
    if (!r.ok) {
      ++kind[2];
      errors.add(kind_name(r.kind) + " request " + std::to_string(r.id) +
                 " failed");
      continue;
    }
    ++kind[1];
    if (r.kind == 'w' && r.recomputed + r.cached != n_sources) {
      errors.add("whatif " + std::to_string(r.id) +
                 ": recomputed + cached != sample size");
    }
    if (r.kind == 'r') {
      if (r.epoch != expected_epoch) {
        errors.add("rebase " + std::to_string(r.id) + " answered epoch " +
                   std::to_string(r.epoch) + ", expected " +
                   std::to_string(expected_epoch));
      }
      ++expected_epoch;
    }
    if (r.kind == 'p' || r.kind == 'd') {
      const std::pair<std::uint64_t, std::uint64_t> got{r.grc, r.ma};
      if (workload == Workload::kLookupRead) {
        // One state all run long: every answer about a source carries the
        // same counts, paths and diversity alike.
        const auto [it, inserted] = first.emplace(r.source, got);
        if (!inserted && it->second != got) {
          errors.add("source " + std::to_string(r.source) + ": " +
                     kind_name(r.kind) + " counts differ from earlier "
                     "answers");
        }
      } else {
        const auto it = epoch_counts.find(r.source);
        if (it == epoch_counts.end() || !it->second.contains(got)) {
          errors.add("source " + std::to_string(r.source) + ": " +
                     kind_name(r.kind) +
                     " counts match no epoch of the program");
        }
      }
    }
  }
  if (workload == Workload::kWhatIfScan && phase.stats_ok &&
      counter_value(phase.stats, "engine.whatif_memo_hits") != 0) {
    errors.add("whatif_scan recorded what-if memo hits");
  }
}

/// Replays the golden subset through the serving stack in-process and
/// compares bytes. Two threads, like the daemon's workers.
void check_golden(const Phase& phase, servecfg::ServeContext& context,
                  Errors& errors) {
  std::atomic<std::size_t> next{0};
  std::vector<std::string> mismatches[2];
  const auto replay = [&](std::vector<std::string>& bad) {
    std::string out;
    for (std::size_t i = next++; i < phase.golden.size(); i = next++) {
      const auto& [request, answer] = phase.golden[i];
      out.clear();
      context.router.handle_line(request, out);
      if (out != answer + "\n") {
        bad.push_back(request.substr(0, 120));
      }
    }
  };
  std::thread second(replay, std::ref(mismatches[1]));
  replay(mismatches[0]);
  second.join();
  for (const std::vector<std::string>& bad : mismatches) {
    for (const std::string& request : bad) {
      errors.add("answer differs from the in-process answer: " + request);
    }
  }
}

/// Latencies of one request kind, pooled over every segment of a run.
[[nodiscard]] std::vector<double> latencies(
    const std::vector<Phase>& segments, char kind, bool from_due = false) {
  std::vector<double> out;
  for (const Phase& phase : segments) {
    for (const Record& r : phase.records) {
      if (r.kind == kind) {
        out.push_back(from_due ? r.due_latency_ms() : r.latency_ms());
      }
    }
  }
  return out;
}

void add_percentile(JsonObject& metrics, JsonObject& samples,
                    const std::string& name,
                    const std::vector<double>& values, double p) {
  metrics.number(name, percentile(values, p));
  samples.integer(name, values.size());
}

/// rebase_read's read generator must keep its schedule for reads timed
/// from their due time to mean anything. A single late wake-up of the
/// sender thread is host noise; a late p95 means it fell behind.
constexpr double kMaxGeneratorLateP95Ms = 5.0;
constexpr double kMaxGeneratorLateMs = 250.0;

/// The end-to-end metrics of an untraced run - its segments, one daemon
/// each, pooled - under their workload-specific names.
void end_to_end(Workload workload, const std::vector<Phase>& segments,
                JsonObject& metrics, JsonObject& samples) {
  if (workload == Workload::kWhatIfScan) {
    const std::vector<double> whatif = latencies(segments, 'w');
    add_percentile(metrics, samples, "whatif_p50_ms", whatif, 50);
    add_percentile(metrics, samples, "whatif_p95_ms", whatif, 95);
    metrics.integer("whatif_beyond_p95", count_beyond(whatif, 95));
  } else if (workload == Workload::kLookupRead) {
    const std::vector<double> paths = latencies(segments, 'p');
    const std::vector<double> diversity = latencies(segments, 'd');
    add_percentile(metrics, samples, "paths_p50_ms", paths, 50);
    add_percentile(metrics, samples, "paths_p95_ms", paths, 95);
    add_percentile(metrics, samples, "diversity_p50_ms", diversity, 50);
    add_percentile(metrics, samples, "diversity_p95_ms", diversity, 95);
  } else {
    const std::vector<double> rebase = latencies(segments, 'r');
    std::vector<double> reads = latencies(segments, 'p', true);
    const std::vector<double> diversity = latencies(segments, 'd', true);
    reads.insert(reads.end(), diversity.begin(), diversity.end());
    add_percentile(metrics, samples, "rebase_p50_ms", rebase, 50);
    add_percentile(metrics, samples, "read_p50_ms", reads, 50);
    add_percentile(metrics, samples, "read_p95_ms", reads, 95);
    double rebase_total_ms = 0.0;
    for (const double ms : rebase) {
      rebase_total_ms += std::isfinite(ms) ? ms : 0.0;
    }
    double wall_s = 0.0;
    double late_p95_ms = 0.0;
    double late_max_ms = 0.0;
    for (const Phase& phase : segments) {
      wall_s += phase.wall_s;
      late_p95_ms = std::max(late_p95_ms, phase.late_p95_ms);
      late_max_ms = std::max(late_max_ms, phase.late_max_ms);
    }
    metrics.number("rebase_share_of_run",
                   rebase_total_ms / 1e3 / std::max(wall_s, 1e-9));
    metrics.number("generator_late_p95_ms", late_p95_ms);
    metrics.number("generator_late_max_ms", late_max_ms);
    // A late generator invalidates the read latencies, which no gate
    // reads; the answers are still checked like any other run's.
    metrics.boolean("read_timing_valid",
                    late_p95_ms <= kMaxGeneratorLateP95Ms &&
                        late_max_ms <= kMaxGeneratorLateMs);
  }
  // Each segment's daemon reports its own peak; the run's peak is the
  // highest of them. On rebase_read one daemon peaks near 20.7 MB and the
  // next near 22.9 MB; most daemons land high, so the highest of three
  // repeats where a single daemon's peak or the median of three would
  // not.
  std::vector<double> rss_mb;
  for (const Phase& phase : segments) {
    rss_mb.push_back(static_cast<double>(
                         gauge_value(phase.stats, "process.peak_rss_kb")) /
                     1024.0);
  }
  add_percentile(metrics, samples, "peak_rss_mb", rss_mb, 100);
}

}  // namespace

int cmd_check(const Flags& flags) {
  const Workload workload = parse_workload(flags.str("workload"));
  const std::string snapshot = flags.str("snapshot");
  const std::size_t n_sources = flags.num("sources");
  const Stream stream = read_stream(flags.str("stream"));
  const bool traced = flags.has("traced");
  Errors errors;
  // --drive lists the untraced segments' directories, comma-separated.
  std::vector<Phase> segments;
  const std::string& drive_dirs = flags.str("drive");
  for (std::size_t at = 0; at <= drive_dirs.size();) {
    const std::size_t comma = std::min(drive_dirs.find(',', at),
                                       drive_dirs.size());
    segments.push_back(
        read_phase(drive_dirs.substr(at, comma - at), errors));
    at = comma + 1;
  }
  const Phase traced_phase =
      traced ? read_phase(flags.str("traced"), errors) : Phase{};
  std::vector<const Phase*> phases;
  for (const Phase& phase : segments) {
    phases.push_back(&phase);
  }
  if (traced) {
    phases.push_back(&traced_phase);
  }

  // The golden stack, built exactly like panagree-serve --threads 2.
  servecfg::ServeContext context(snapshot.c_str(), n_sources, 2, 256, 1);
  const std::uint64_t prime_start = now_ns();
  context.prime();
  const double engine_prime_ms =
      static_cast<double>(now_ns() - prime_start) / 1e6;
  if (context.sources.size() != n_sources) {
    errors.add("the snapshot has fewer ASes than --sources");
  }

  EpochCounts epoch_counts;
  std::vector<double> rebase_ms;
  if (workload == Workload::kRebaseRead) {
    // Replay the deployment program as far as any phase got; record
    // every source's counts at every epoch.
    std::size_t steps = 0;
    for (const Phase* phase : phases) {
      for (const Record& r : phase->records) {
        if (r.kind == 'r' && r.ok) {
          steps = std::max<std::size_t>(steps, r.id);
        }
      }
    }
    const auto snapshot_counts = [&] {
      for (const topology::AsId src : context.sources) {
        const serve::DiversityResult d = context.router.diversity(src);
        epoch_counts[static_cast<std::uint32_t>(src)].emplace(d.grc_paths,
                                                              d.ma_paths);
      }
    };
    snapshot_counts();
    for (std::size_t step = 0; step < steps && step < stream.deltas.size();
         ++step) {
      scenario::Delta delta;
      delta.add.push_back({stream.deltas[step].first,
                           stream.deltas[step].second,
                           topology::LinkType::kPeering});
      const std::uint64_t start = now_ns();
      const std::uint64_t epoch = context.router.rebase(delta);
      rebase_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
      if (epoch != step + 1) {
        errors.add("in-process rebase epoch mismatch");
      }
      snapshot_counts();
    }
  } else {
    for (const Phase& phase : segments) {
      check_golden(phase, context, errors);
    }
  }

  // Every daemon - every segment and the traced phase - starts at epoch 0,
  // so each phase is checked on its own.
  std::map<std::string, std::array<std::uint64_t, 3>> counts;
  std::size_t golden_compared = 0;
  for (const Phase* phase : phases) {
    check_answers(workload, *phase, n_sources, epoch_counts, errors, counts);
    golden_compared += phase == &traced_phase ? 0 : phase->golden.size();
  }

  JsonObject out;
  JsonObject metrics;
  JsonObject samples;
  JsonObject self_times;
  if (traced) {
    traced_layers(workload, snapshot, stream, segments.front(),
                  traced_phase, flags.str("daemon-trace"), context,
                  engine_prime_ms, rebase_ms, errors, metrics, samples,
                  self_times);
  } else {
    end_to_end(workload, segments, metrics, samples);
  }

  JsonObject count_json;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [kind, c] : counts) {
    JsonObject one;
    one.integer("sent", c[0]);
    one.integer("succeeded", c[1]);
    one.integer("failed", c[2]);
    count_json.object(kind, one);
    attempted += c[0];
    failed += c[2];
  }
  std::string messages = "[";
  for (const std::string& message : errors.messages) {
    messages += (messages.size() > 1 ? "," : "") + JsonObject::quote(message);
  }
  messages += "]";
  out.boolean("correct", errors.count == 0);
  out.integer("attempted", attempted);
  out.integer("failed", failed);
  out.integer("check_errors", errors.count);
  out.raw("errors", messages);
  out.object("requests", count_json);
  out.integer("golden_compared", golden_compared);
  out.number("engine_prime_ms", engine_prime_ms);
  out.object("metrics", metrics);
  out.object("samples", samples);
  out.object("self_p50_us", self_times);
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace perfbench
