// panagree-top: a live terminal dashboard over a panagree-serve daemon.
//
//   panagree-top --port P [--interval SEC] [--limit N] [--once]
//       [--version]
//
// Polls the `stats` and `slowlog` wire kinds each frame and renders:
//
//   * throughput - QPS from the serve.requests.* counter deltas between
//     frames (lifetime average on the first frame, from uptime_s);
//   * per-kind latency p50/p95/p99 out of the serve.latency_ns.*
//     histograms (nearest-rank over the log2 buckets - upper bounds,
//     the same estimator as the Prometheus exposition);
//   * queue depth and its high-water mark, cache hit rates (paths
//     cache vs cold, whatif memo sharing), uptime, peak RSS and the
//     share of it the cached path sets hold (engine.path_cache_bytes);
//   * the slow-query table: the server's slow-query ring, slowest
//     first, with the per-stage nanosecond breakdown of each entry.
//
// --once renders a single plain-text frame (no ANSI control sequences)
// and exits - the scripting/CI mode. Live mode repaints every
// --interval seconds (default 2) until interrupted.
//
// The dashboard is a pure wire client: everything it shows comes out of
// the two introspection responses, so it works against any daemon
// build, including one it did not ship with.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "panagree/obs/export.hpp"
#include "panagree/serve/client.hpp"
#include "panagree/serve/wire.hpp"

using namespace panagree;

namespace {

constexpr const char* kTool = "panagree-top";

void usage() {
  std::cerr << "usage: panagree-top --port P [--interval SEC] [--limit N]"
               " [--once] [--version]\n";
}

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void on_interrupt(int) { g_interrupted = 1; }

[[nodiscard]] std::uint64_t find_counter(const obs::MetricsSnapshot& snap,
                                         std::string_view name) {
  for (const obs::CounterSample& counter : snap.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

[[nodiscard]] std::int64_t find_gauge(const obs::MetricsSnapshot& snap,
                                      std::string_view name) {
  for (const obs::GaugeSample& gauge : snap.gauges) {
    if (gauge.name == name) {
      return gauge.value;
    }
  }
  return 0;
}

[[nodiscard]] const obs::HistogramSample* find_histogram(
    const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::HistogramSample& histogram : snap.histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

[[nodiscard]] double ns_to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Sum of the serve.requests.* counters - the denominator of QPS.
[[nodiscard]] std::uint64_t total_requests(
    const obs::MetricsSnapshot& snap) {
  std::uint64_t total = 0;
  for (const obs::CounterSample& counter : snap.counters) {
    if (std::string_view(counter.name).rfind("serve.requests.", 0) == 0) {
      total += counter.value;
    }
  }
  return total;
}

[[nodiscard]] double percent(std::uint64_t part, std::uint64_t whole) {
  return whole == 0
             ? 0.0
             : 100.0 * static_cast<double>(part) /
                   static_cast<double>(whole);
}

struct Frame {
  serve::StatsResult stats;
  serve::SlowLogResult slowlog;
  std::chrono::steady_clock::time_point at;
};

[[nodiscard]] Frame poll_frame(serve::ClientConnection& conn) {
  Frame frame;
  conn.send_line("{\"v\":1,\"id\":1,\"kind\":\"stats\"}");
  std::string response = conn.read_line();
  if (response.empty()) {
    throw serve::ClientError("connection closed before stats response");
  }
  frame.stats = serve::parse_stats_response(response);
  conn.send_line("{\"v\":1,\"id\":2,\"kind\":\"slowlog\"}");
  response = conn.read_line();
  if (response.empty()) {
    throw serve::ClientError("connection closed before slowlog response");
  }
  frame.slowlog = serve::parse_slowlog_response(response);
  frame.at = std::chrono::steady_clock::now();
  return frame;
}

void render_frame(const Frame& frame, const Frame* previous,
                  std::size_t limit) {
  const obs::MetricsSnapshot& snap = frame.stats.metrics;
  const std::uint64_t total = total_requests(snap);

  // QPS: counter delta over the inter-frame interval; the first frame
  // falls back to the lifetime average so --once still shows a rate.
  double qps = 0.0;
  if (previous != nullptr) {
    const std::uint64_t prev_total = total_requests(previous->stats.metrics);
    const double dt =
        std::chrono::duration<double>(frame.at - previous->at).count();
    if (dt > 0 && total >= prev_total) {
      qps = static_cast<double>(total - prev_total) / dt;
    }
  } else {
    const std::int64_t uptime = find_gauge(snap, "process.uptime_s");
    if (uptime > 0) {
      qps = static_cast<double>(total) / static_cast<double>(uptime);
    }
  }

  std::printf("panagree-top  build %s  epoch %" PRIu64
              "  uptime %" PRId64 "s  peak rss %" PRId64
              " MB  path cache %.1f MB\n",
              frame.stats.build.c_str(), frame.stats.epoch,
              find_gauge(snap, "process.uptime_s"),
              find_gauge(snap, "process.peak_rss_kb") / 1024,
              static_cast<double>(find_gauge(snap, "engine.path_cache_bytes")) /
                  (1024.0 * 1024.0));
  std::printf("qps %.1f  requests %" PRIu64 "  queue depth %" PRId64
              " (hwm %" PRId64 ")\n\n",
              qps, total, find_gauge(snap, "server.queue_depth"),
              find_gauge(snap, "server.queue_depth_hwm"));

  std::printf("%-10s %10s %10s %10s %10s\n", "kind", "count", "p50 ms",
              "p95 ms", "p99 ms");
  for (const char* kind : {"paths", "diversity", "whatif", "stats",
                           "slowlog", "rebase", "errors"}) {
    const std::string name = std::string("serve.latency_ns.") + kind;
    const obs::HistogramSample* histogram = find_histogram(snap, name);
    if (histogram == nullptr || histogram->count == 0) {
      continue;
    }
    std::printf("%-10s %10" PRIu64 " %10.3f %10.3f %10.3f\n", kind,
                histogram->count,
                ns_to_ms(obs::histogram_percentile(*histogram, 50.0)),
                ns_to_ms(obs::histogram_percentile(*histogram, 95.0)),
                ns_to_ms(obs::histogram_percentile(*histogram, 99.0)));
  }

  const std::uint64_t cache_hits =
      find_counter(snap, "engine.paths_cache_hits");
  const std::uint64_t cold = find_counter(snap, "engine.paths_cold");
  const std::uint64_t memo_hits =
      find_counter(snap, "engine.whatif_memo_hits");
  const std::uint64_t memo_shared =
      find_counter(snap, "engine.whatif_memo_shared");
  const std::uint64_t memo_unshared =
      find_counter(snap, "engine.whatif_unshared");
  std::printf(
      "\ncache: paths %.1f%% hit (%" PRIu64 "/%" PRIu64
      ")  whatif memo: %" PRIu64 " hits, %" PRIu64 " shared, %" PRIu64
      " unshared\n",
      percent(cache_hits, cache_hits + cold), cache_hits,
      cache_hits + cold, memo_hits, memo_shared, memo_unshared);

  std::printf("\nslow queries (threshold %.1f ms, %zu captured):\n",
              ns_to_ms(frame.slowlog.threshold_ns),
              frame.slowlog.entries.size());
  std::printf("%6s %-10s %8s %10s %9s %9s %9s %9s %9s\n", "id", "kind",
              "source", "wall ms", "queue", "parse", "engine", "serial",
              "send");
  const std::size_t shown =
      std::min<std::size_t>(limit, frame.slowlog.entries.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const obs::SlowQueryRecord& entry = frame.slowlog.entries[i];
    std::printf("%6" PRIu64 " %-10.10s %8" PRIu64
                " %10.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                entry.wire_id,
                std::string(serve::slow_kind_name(entry.kind)).c_str(),
                entry.source, ns_to_ms(entry.wall_ns),
                ns_to_ms(entry.queue_ns), ns_to_ms(entry.parse_ns),
                ns_to_ms(entry.engine_ns), ns_to_ms(entry.serialize_ns),
                ns_to_ms(entry.send_ns));
  }
  if (shown < frame.slowlog.entries.size()) {
    std::printf("  ... %zu more (raise --limit)\n",
                frame.slowlog.entries.size() - shown);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t port = 0;
  bool have_port = false;
  std::size_t interval_s = 2;
  std::size_t limit = 16;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      cli::print_version(kTool);
    } else if (arg == "--port") {
      port = cli::parse_size(kTool, arg,
                             cli::require_value(kTool, arg, argc, argv, i));
      have_port = true;
    } else if (arg == "--interval") {
      interval_s = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--limit") {
      limit = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--once") {
      once = true;
    } else {
      usage();
      return cli::kUsageExit;
    }
  }
  if (!have_port || port > 65535 || (!once && interval_s == 0)) {
    usage();
    return cli::kUsageExit;
  }

  try {
    serve::ClientConnection conn(static_cast<std::uint16_t>(port));
    if (once) {
      const Frame frame = poll_frame(conn);
      render_frame(frame, nullptr, limit);
      return 0;
    }
    struct sigaction action{};
    action.sa_handler = on_interrupt;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    Frame previous = poll_frame(conn);
    std::fputs("\x1b[2J", stdout);  // clear once; frames repaint in place
    std::fputs("\x1b[H", stdout);
    render_frame(previous, nullptr, limit);
    while (g_interrupted == 0) {
      std::this_thread::sleep_for(std::chrono::seconds(interval_s));
      if (g_interrupted != 0) {
        break;
      }
      const Frame frame = poll_frame(conn);
      std::fputs("\x1b[H\x1b[J", stdout);  // home + clear below
      render_frame(frame, &previous, limit);
      previous = frame;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
