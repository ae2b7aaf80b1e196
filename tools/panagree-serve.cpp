// panagree-serve: the long-running path/what-if query daemon.
//
//   panagree-serve [--snapshot FILE] [--port P] [--threads N]
//       [--max-batch B] [--sources N] [--max-queue Q]
//       [--stats-interval SEC] [--slow-ms MS] [--version]
//
// Opens the topology (a mmap'd .pansnap via --snapshot or
// PANAGREE_SNAPSHOT wins; PANAGREE_CAIDA / the synthetic generator
// otherwise), primes the per-source baseline once, and answers
// newline-delimited JSON requests (see serve/wire.hpp) on
// 127.0.0.1:--port until SIGTERM/SIGINT, which drains gracefully: every
// accepted request is answered before exit.
//
// One serve::QueryEngine answers every kind, the admin `rebase`
// included (copy-on-rebase epochs: a rebase enumerates and contributes
// only its step's dirty sources and shares every clean path set with
// the previous epoch). Priming enumerates every sampled source's paths
// and folds its contribution; the readiness line ends with the wall time
// of the cold start's phases: building the serving context (snapshot
// open, economy, engine; context_ms=), then both prime phases
// (enumerate_ms=, fold_ms=).
//
// --port 0 binds an ephemeral port; the chosen port is in the
// "listening" line. That line goes to *stdout* (everything else to
// stderr) as the machine-readable readiness signal scripts wait for.
//
// --threads drives the prime fan-out, the spread of one what-if's or
// rebase's dirty sources and the worker pool (0 = one per cpu the process may run
// on); --max-batch bounds the
// per-epoch what-if memo (concurrent identical what-ifs share one
// enumeration); --sources is the cached sample size (the paper's 500 by
// default, PANAGREE_SOURCES honored). The kernel places threads and
// pages; the readiness line reports the process's cpu mask.
//
// --stats-interval SEC (opt-in, 0 = off) prints a one-line metrics
// summary to stderr every SEC seconds while idle-waiting for shutdown;
// PANAGREE_TRACE=<file> arms span tracing (see obs/trace.hpp); the
// trace document is flushed after the SIGTERM drain, so a signal-
// terminated daemon keeps everything captured mid-run.
//
// --slow-ms MS (default: PANAGREE_SLOW_MS, else 10) sets the slow-query
// capture threshold: requests whose attributed wall time reaches MS
// milliseconds land in the slow-query ring served by the `slowlog` wire
// kind (panagree-query --slowlog, panagree-top). 0 captures every
// request - what the CI smoke uses to assert full stage breakdowns. A
// threshold whose nanoseconds overflow 64 bits is a usage error.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

#include <poll.h>
#include <unistd.h>

#include "cli_common.hpp"
#include "panagree/obs/build_info.hpp"
#include "panagree/obs/export.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/serve/server.hpp"
#include "serve_common.hpp"

using namespace panagree;

namespace {

constexpr const char* kTool = "panagree-serve";

void usage() {
  std::cerr << "usage: panagree-serve [--snapshot FILE] [--port P]"
               " [--threads N]\n"
               "           [--max-batch B] [--sources N] [--max-queue Q]\n"
               "           [--stats-interval SEC] [--slow-ms MS]"
               " [--version]\n";
}

/// The opt-in periodic stats line: engine/server counters and the queue
/// high-water mark, one `name=value` pair per metric, greppable via the
/// "[serve] stats" prefix. Empty (prefix only) under PANAGREE_OBS_OFF.
void emit_stats_line(std::uint64_t epoch) {
  const obs::MetricsSnapshot snap = obs::snapshot_metrics();
  std::cerr << "[serve] stats epoch=" << epoch;
  for (const obs::CounterSample& counter : snap.counters) {
    const std::string_view name = counter.name;
    if (name.rfind("serve.requests.", 0) == 0 ||
        name.rfind("engine.", 0) == 0 || name.rfind("server.", 0) == 0) {
      std::cerr << ' ' << name << '=' << counter.value;
    }
  }
  for (const obs::GaugeSample& gauge : snap.gauges) {
    if (std::string_view(gauge.name).rfind("server.queue_depth", 0) == 0) {
      std::cerr << ' ' << gauge.name << '=' << gauge.value;
    }
  }
  std::cerr << std::endl;
}

/// "context_ms=C enumerate_ms=E fold_ms=F": the cold start's three
/// phases - the ServeContext construction (snapshot open, economy,
/// engine) and the two prime phases - one decimal each.
std::string cold_start_fields(std::chrono::nanoseconds context,
                              const serve::PrimeTiming& timing) {
  const auto ms = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", static_cast<double>(ns) / 1e6);
    return std::string(buf);
  };
  return "context_ms=" + ms(static_cast<std::uint64_t>(context.count())) +
         " enumerate_ms=" + ms(timing.enumerate_ns) +
         " fold_ms=" + ms(timing.fold_ns);
}

/// Self-pipe the signal handlers write one byte into; main blocks on the
/// read end, so the drain runs on the main thread, not in handler
/// context.
int g_signal_pipe[2] = {-1, -1};

extern "C" void on_shutdown_signal(int) {
  const char byte = 1;
  // Best-effort: a full pipe just means a signal is already pending.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot;
  std::size_t port = 7517;
  std::size_t threads = benchcfg::num_threads();
  std::size_t max_batch = 256;
  std::size_t sources_n = benchcfg::num_sources();
  std::size_t max_queue = 1024;
  std::size_t stats_interval = 0;
  std::size_t slow_ms = cli::env_slow_ms(kTool, 10);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      cli::print_version(kTool);
    } else if (arg == "--snapshot") {
      snapshot = cli::require_value(kTool, arg, argc, argv, i);
    } else if (arg == "--port") {
      port = cli::parse_size(kTool, arg,
                             cli::require_value(kTool, arg, argc, argv, i));
      if (port > 65535) {
        std::cerr << kTool << ": invalid --port " << port << "\n";
        return cli::kUsageExit;
      }
    } else if (arg == "--threads") {
      threads = cli::parse_threads(kTool, argc, argv, i);
    } else if (arg == "--max-batch") {
      max_batch = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--sources") {
      sources_n = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--max-queue") {
      max_queue = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--stats-interval") {
      stats_interval = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--slow-ms") {
      slow_ms = cli::parse_slow_ms(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else {
      usage();
      return cli::kUsageExit;
    }
  }
  cli::init_tracing();
  obs::SlowQueryLog::global().set_threshold_ns(
      static_cast<std::uint64_t>(slow_ms) * 1'000'000);

  try {
    const auto context_start = std::chrono::steady_clock::now();
    servecfg::ServeContext context(
        snapshot.empty() ? nullptr : snapshot.c_str(), sources_n, threads,
        max_batch);
    const auto prime_start = std::chrono::steady_clock::now();
    const serve::PrimeTiming timing = context.prime();
    const double prime_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                prime_start)
                                .count();
    const std::string phase_ms =
        cold_start_fields(prime_start - context_start, timing);
    std::cerr << "[serve] primed " << context.sources.size()
              << " sources in " << prime_ms << " ms ("
              << context.net.graph().num_ases() << " ASes) " << phase_ms
              << "\n";

    serve::ServerConfig server_config;
    server_config.port = static_cast<std::uint16_t>(port);
    server_config.worker_threads = paths::resolve_thread_count(threads);
    server_config.max_queue = max_queue;
    serve::Server server(context.engine, server_config);
    server.start();

    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << kTool << ": cannot create signal pipe\n";
      return 1;
    }
    struct sigaction action{};
    action.sa_handler = on_shutdown_signal;
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    // The readiness line scripts and clients wait for - stdout, flushed.
    // After the address, every field is one whitespace-free key=value
    // token: the cpus the process may run on, the build and the cold
    // start's phases.
    std::cout << "listening on 127.0.0.1:" << server.port()
              << " affinity=" << paths::affinity_summary()
              << " build=" << obs::build_info().git_describe << " "
              << phase_ms << std::endl;

    // Idle-wait for the shutdown byte; with --stats-interval the wait
    // is chopped into poll timeouts that each emit one stats line.
    const int poll_timeout_ms =
        stats_interval == 0
            ? -1
            : static_cast<int>(
                  std::min<std::size_t>(stats_interval, 86400) * 1000);
    for (;;) {
      struct pollfd pfd{g_signal_pipe[0], POLLIN, 0};
      const int ready = ::poll(&pfd, 1, poll_timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) {
          continue;
        }
        std::cerr << kTool << ": poll failed\n";
        break;
      }
      if (ready == 0) {
        emit_stats_line(context.engine.epoch());
        continue;
      }
      break;  // shutdown byte pending
    }
    std::cerr << "[serve] shutdown signal; draining\n";
    server.stop();
    std::cerr << "[serve] drained after " << server.handled_requests()
              << " requests\n";
    // Flush the trace document now that the drain has recorded the last
    // request's span tree - exit paths that bypass atexit (a second
    // signal, _exit in a wrapper) must not lose the trace.
    obs::trace_flush();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
