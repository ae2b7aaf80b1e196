// panagree-query: scriptable client of panagree-serve.
//
//   panagree-query --port P                # send stdin lines, print replies
//   panagree-query --direct [--snapshot FILE] [--sources N] [--threads N]
//   panagree-query --port P --bench [--snapshot FILE] [--requests N]
//       [--connections C] [--kind paths|diversity|whatif|mix] [--sources N]
//   panagree-query --port P --stats [--prom]   # scrape server metrics
//   panagree-query --port P --slowlog          # dump the slow-query ring
//
// One-shot mode reads newline-delimited JSON requests (see
// serve/wire.hpp) from stdin, sends each to the server, waits for its
// response, and prints it - closed loop, so output order equals input
// order and sessions are diffable.
//
// --direct answers the same request lines in-process through the exact
// serving-stack construction panagree-serve uses (tools/serve_common.hpp,
// so `rebase` lines work too; responses are byte-identical at any
// --threads): its output is the golden reference the CI smoke job diffs
// server output against, byte for byte.
//
// --bench is a closed-loop load generator: C connections each fire their
// share of N deterministic requests (rotating over the sampled sources
// and candidate peering deltas of the topology, which is why it needs
// the snapshot too) and the tool reports throughput and latency
// percentiles (nearest-rank: the smallest sample >= p percent of the
// sorted distribution - an actual observed latency, never interpolated).
//
// --stats sends one `{"kind":"stats"}` request and prints the raw wire
// response (byte-stable field order); --stats --prom re-emits it as
// Prometheus text exposition instead.
//
// --slowlog sends one `{"kind":"slowlog"}` request and prints the raw
// wire response: the server's slow-query ring (threshold and entries
// with per-stage nanosecond breakdowns, slowest first). Like stats, the
// bytes are a stable function of the contents but reflect process-wide
// runtime state - not diffable against --direct.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "panagree/obs/export.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/serve/client.hpp"
#include "panagree/serve/wire.hpp"
#include "serve_common.hpp"

using namespace panagree;

namespace {

constexpr const char* kTool = "panagree-query";

void usage() {
  std::cerr
      << "usage: panagree-query --port P            (requests on stdin)\n"
         "       panagree-query --direct [--snapshot FILE] [--sources N]"
         " [--threads N]\n"
         "       panagree-query --port P --bench [--snapshot FILE]"
         " [--requests N]\n"
         "           [--connections C] [--kind paths|diversity|whatif|mix]"
         " [--sources N]\n"
         "       panagree-query --port P --stats [--prom]\n"
         "       panagree-query --port P --slowlog\n";
}

/// Blank (including CR-only, from CRLF scripts) lines carry no request;
/// the server drops them silently, so the client must not wait for a
/// response to one.
[[nodiscard]] bool is_blank(const std::string& line) {
  return line.empty() || line == "\r";
}

[[nodiscard]] std::string read_response(serve::ClientConnection& conn) {
  std::string response = conn.read_line();
  if (response.empty()) {
    throw serve::ClientError("connection closed before response");
  }
  return response;
}

struct Options {
  std::size_t port = 0;
  bool have_port = false;
  bool direct = false;
  bool bench = false;
  bool stats = false;
  bool prom = false;
  bool slowlog = false;
  std::string snapshot;
  std::size_t sources_n = benchcfg::num_sources();
  std::size_t threads = benchcfg::num_threads();
  std::size_t requests = 2000;
  std::size_t connections = 4;
  std::string kind = "mix";
};

/// The deterministic --bench request stream: ids are 1-based stream
/// positions, kinds rotate (or stay fixed), sources rotate over the
/// engine's sample, deltas over the candidate peering links.
std::vector<std::string> build_bench_requests(const Options& options) {
  const auto net = benchcfg::load_internet(
      0, options.snapshot.empty() ? nullptr : options.snapshot.c_str());
  const std::vector<topology::AsId> sources = diversity::sample_sources(
      net.graph(), options.sources_n, benchcfg::kSampleSeed);
  const std::vector<scenario::Delta> deltas =
      scenario::candidate_peering_deltas(net.compiled(), 64, 4242);
  if (sources.empty()) {
    throw std::runtime_error("--bench: no sources to query");
  }
  std::vector<std::string> requests;
  requests.reserve(options.requests);
  for (std::size_t i = 0; i < options.requests; ++i) {
    std::string kind = options.kind;
    if (kind == "mix") {
      kind = i % 3 == 0 ? "paths" : (i % 3 == 1 ? "diversity" : "whatif");
    }
    if (kind == "whatif" && deltas.empty()) {
      kind = "paths";  // tiny graphs may have no candidates
    }
    std::string line = "{\"v\":1,\"id\":" + std::to_string(i + 1) +
                       ",\"kind\":\"" + kind + "\"";
    if (kind == "whatif") {
      const scenario::LinkChange& link =
          deltas[i % deltas.size()].add.front();
      line += ",\"add\":[{\"a\":" + std::to_string(link.a) +
              ",\"b\":" + std::to_string(link.b) +
              ",\"type\":\"peering\"}]}";
    } else {
      line += ",\"source\":" + std::to_string(sources[i % sources.size()]) +
              "}";
    }
    requests.push_back(std::move(line));
  }
  return requests;
}

int run_bench(const Options& options) {
  const std::vector<std::string> requests = build_bench_requests(options);
  const std::size_t connections =
      std::max<std::size_t>(1, std::min(options.connections,
                                        requests.size()));
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::string> errors(connections);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::ClientConnection conn(
            static_cast<std::uint16_t>(options.port));
        // Stride partition: connection c sends requests c, c+C, ...
        for (std::size_t i = c; i < requests.size(); i += connections) {
          const auto sent = std::chrono::steady_clock::now();
          conn.send_line(requests[i]);
          const std::string response = read_response(conn);
          latencies[c].push_back(
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - sent)
                  .count());
          if (response.find("\"ok\":true") == std::string::npos) {
            throw std::runtime_error("server error: " + response);
          }
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

  for (const std::string& error : errors) {
    if (!error.empty()) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
  }
  std::vector<double> all;
  for (const std::vector<double>& per_conn : latencies) {
    all.insert(all.end(), per_conn.begin(), per_conn.end());
  }
  if (all.empty()) {
    std::cerr << kTool << ": --bench measured no requests (--requests 0?)\n";
    return cli::kUsageExit;
  }
  std::sort(all.begin(), all.end());
  // Nearest-rank percentile: rank = ceil(p/100 * count), 1-based, so the
  // reported value is always an observed sample (p100 = max, and p0
  // clamps to the min). No interpolation - small samples stay honest.
  const auto percentile = [&](double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(all.size())));
    return all[std::max<std::size_t>(rank, 1) - 1];
  };
  std::cout << "== panagree-query --bench: " << all.size()
            << " requests over " << connections << " connections ==\n"
            << "qps " << static_cast<double>(all.size()) / wall_s
            << "\nlatency ms (nearest-rank): count " << all.size()
            << ", min " << all.front() << ", p50 " << percentile(50.0)
            << ", p95 " << percentile(95.0) << ", p99 " << percentile(99.0)
            << ", max " << all.back() << "\n";
  return 0;
}

/// --slowlog: one slowlog request over the wire; prints the raw
/// response line (parsed first, so a server error response surfaces as
/// an error exit rather than passing through).
int run_slowlog(const Options& options) {
  serve::ClientConnection conn(static_cast<std::uint16_t>(options.port));
  conn.send_line("{\"v\":1,\"id\":1,\"kind\":\"slowlog\"}");
  const std::string response = read_response(conn);
  (void)serve::parse_slowlog_response(response);
  std::cout << response;
  return 0;
}

/// --stats: one stats request over the wire; prints the raw response
/// line (the byte-stable exposition format) or, with --prom, the same
/// snapshot re-emitted as Prometheus text.
int run_stats(const Options& options) {
  serve::ClientConnection conn(static_cast<std::uint16_t>(options.port));
  conn.send_line("{\"v\":1,\"id\":1,\"kind\":\"stats\"}");
  const std::string response = read_response(conn);
  if (!options.prom) {
    std::cout << response;
    return 0;
  }
  const serve::StatsResult stats = serve::parse_stats_response(response);
  std::cout << obs::to_prometheus_text(stats.metrics);
  return 0;
}

int run_direct(const Options& options) {
  servecfg::ServeContext context(
      options.snapshot.empty() ? nullptr : options.snapshot.c_str(),
      options.sources_n, options.threads, /*max_batch=*/256);
  context.prime();
  std::string line;
  std::string out;
  while (std::getline(std::cin, line)) {
    if (is_blank(line)) {
      continue;
    }
    out.clear();
    context.engine.handle_line(line, out);
    std::cout << out;
  }
  return 0;
}

int run_session(const Options& options) {
  serve::ClientConnection conn(static_cast<std::uint16_t>(options.port));
  std::string line;
  while (std::getline(std::cin, line)) {
    if (is_blank(line)) {
      continue;
    }
    conn.send_line(line);
    std::cout << read_response(conn);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--version") {
      cli::print_version(kTool);
    } else if (arg == "--port") {
      options.port = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
      options.have_port = true;
    } else if (arg == "--direct") {
      options.direct = true;
    } else if (arg == "--bench") {
      options.bench = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (arg == "--slowlog") {
      options.slowlog = true;
    } else if (arg == "--prom") {
      options.prom = true;
    } else if (arg == "--snapshot") {
      options.snapshot = cli::require_value(kTool, arg, argc, argv, i);
    } else if (arg == "--sources") {
      options.sources_n = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--threads") {
      options.threads = cli::parse_threads(kTool, argc, argv, i);
    } else if (arg == "--requests") {
      options.requests = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--connections") {
      options.connections = cli::parse_size(
          kTool, arg, cli::require_value(kTool, arg, argc, argv, i));
    } else if (arg == "--kind") {
      options.kind = cli::require_value(kTool, arg, argc, argv, i);
      if (options.kind != "paths" && options.kind != "diversity" &&
          options.kind != "whatif" && options.kind != "mix") {
        usage();
        return cli::kUsageExit;
      }
    } else {
      usage();
      return cli::kUsageExit;
    }
  }
  if (options.port > 65535 || (options.have_port && options.direct) ||
      (!options.have_port && !options.direct) ||
      (options.bench && !options.have_port) ||
      (options.stats && !options.have_port) ||
      (options.slowlog && !options.have_port) ||
      (options.slowlog && (options.stats || options.bench)) ||
      (options.stats && options.bench) || (options.prom && !options.stats)) {
    usage();
    return cli::kUsageExit;
  }
  cli::init_tracing();

  try {
    if (options.stats) {
      return run_stats(options);
    }
    if (options.slowlog) {
      return run_slowlog(options);
    }
    if (options.bench) {
      return run_bench(options);
    }
    if (options.direct) {
      return run_direct(options);
    }
    return run_session(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
