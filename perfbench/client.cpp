// perfbench-client: load generator, output checker and in-process layer
// replay of the panagree-serve end-to-end benchmark. run.py drives it,
// one subcommand per phase, so that only the load runs while the daemon
// is up:
//
//   perfbench-client gen   --snapshot F --sources N --workload W --seed S
//                          --out STREAM
//   perfbench-client drive --port P --workload W --millis T
//                          --stream STREAM --out DIR [--first-unit U]
//   perfbench-client check --snapshot F --sources N --workload W
//                          --stream STREAM --drive DIR[,DIR...]
//                          [--traced DIR --daemon-trace FILE]
//   perfbench-client refloop
//
// `gen` turns the seed into the request stream; `drive` sends it (see
// drive.cpp); `check` verifies every answer after the daemon stopped
// and, for a traced run, replays the requests in-process layer by layer
// (see check.cpp); `refloop` times a fixed arithmetic loop that uses
// nothing of libpanagree, a host-speed diagnostic taken around each run.
#include <random>

#include "bench_common.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/program.hpp"
#include "panagree/scenario/sweep.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using namespace panagree;

/// Candidate agreements the what-if stream and the deployment program
/// are drawn from: single peering links between ASes two hops apart.
/// The pool is fixed; the seed picks from it.
constexpr std::size_t kPoolSize = 4096;
constexpr std::uint64_t kPoolSeed = 4242;
/// At most this many cost strata (a power of two, see stratified_order).
constexpr std::size_t kMaxStrata = 512;
/// rebase_read: think time between commits, chosen so that rebases
/// cover about a third of the run, and the open-loop read rate.
constexpr std::uint64_t kThinkMs = 450;
constexpr std::uint64_t kReadRateHz = 100;
/// Laps of the source permutation written for the read workloads; drive
/// cycles the list when a run gets through all of it.
constexpr std::size_t kSourceLaps = 64;

[[nodiscard]] std::size_t bit_reverse(std::size_t value, std::size_t bits) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    out = (out << 1) | ((value >> i) & 1);
  }
  return out;
}

/// The candidate pool ordered so that every prefix of the stream holds
/// each cost quantile in proportion. A what-if costs about the baseline
/// paths of its dirty sources (the sampled sources inside its
/// invalidation ball): contribution() is ~90% of it and linear in paths.
/// The pool is sorted by that cost and cut into M strata; position r of
/// lap L takes stratum (bit_reverse(r) + offset) mod M - a rotated
/// van der Corput sequence, so any prefix spreads evenly over the cost
/// range - and the seed picks the member of each stratum and the
/// rotation. The hub-adjacent deltas that cost seconds are kept in their
/// share; only their position in the stream is balanced.
std::vector<std::pair<std::uint32_t, std::uint32_t>> stratified_order(
    const topology::CompiledTopology& base,
    const std::vector<topology::AsId>& sources, std::mt19937_64& rng) {
  const std::vector<scenario::Delta> pool =
      scenario::candidate_peering_deltas(base, kPoolSize, kPoolSeed);
  if (pool.empty()) {
    die("the topology has no candidate peering links");
  }
  scenario::SweepConfig config;
  config.threads = 2;
  config.dirty_radius = scenario::kLength3DirtyRadius;
  scenario::SweepRunner<scenario::SourcePathSet> runner(base, sources,
                                                        config);
  runner.prime([](const scenario::Overlay& overlay, topology::AsId src) {
    return scenario::enumerate_length3(overlay, src);
  });
  std::vector<std::pair<topology::AsId, std::uint64_t>> paths_of;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const scenario::SourcePathSet& set = runner.baseline()[i];
    paths_of.emplace_back(sources[i], set.grc().size() + set.ma().size());
  }
  std::sort(paths_of.begin(), paths_of.end());

  struct Candidate {
    std::uint64_t cost = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(pool.size());
  for (const scenario::Delta& delta : pool) {
    scenario::Overlay overlay(base);
    overlay.apply(delta);
    const std::vector<topology::AsId> ball = scenario::invalidation_ball(
        overlay, scenario::touched_ases(delta),
        scenario::kLength3DirtyRadius);
    std::uint64_t cost = 0;
    for (const auto& [src, paths] : paths_of) {
      if (std::binary_search(ball.begin(), ball.end(), src)) {
        cost += paths;
      }
    }
    const scenario::LinkChange& link = delta.add.front();
    candidates.push_back({cost, static_cast<std::uint32_t>(link.a),
                          static_cast<std::uint32_t>(link.b)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              return std::tie(x.cost, x.a, x.b) < std::tie(y.cost, y.a, y.b);
            });

  std::size_t bits = 0;
  while ((std::size_t{2} << bits) <= std::min(kMaxStrata, pool.size())) {
    ++bits;
  }
  const std::size_t strata = std::size_t{1} << bits;
  const std::size_t laps = candidates.size() / strata;
  const std::size_t offset = rng() % strata;
  std::vector<std::size_t> pick(strata);
  for (std::size_t& member : pick) {
    member = rng() % laps;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  order.reserve(strata * laps);
  for (std::size_t lap = 0; lap < laps; ++lap) {
    for (std::size_t r = 0; r < strata; ++r) {
      const std::size_t stratum = (bit_reverse(r, bits) + offset) % strata;
      const std::size_t begin = stratum * candidates.size() / strata;
      const std::size_t end = (stratum + 1) * candidates.size() / strata;
      const Candidate& c =
          candidates[begin + (pick[stratum] + lap) % (end - begin)];
      order.emplace_back(c.a, c.b);
    }
  }
  return order;
}

int cmd_refloop() {
  // A logistic-map recurrence: one dependent multiply-add chain, so its
  // time tracks the core's clock and the share of it this process gets.
  std::vector<double> ms;
  double x = 0.25;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t start = now_ns();
    for (int i = 0; i < 4'000'000; ++i) {
      x = 3.99 * x * (1.0 - x);
    }
    ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  std::cout << percentile(ms, 50) << " " << x << "\n";
  return 0;
}

}  // namespace

int cmd_gen(const Flags& flags) {
  const Workload workload = parse_workload(flags.str("workload"));
  std::mt19937_64 rng(flags.num("seed"));
  const benchcfg::Internet net =
      benchcfg::load_internet(0, flags.str("snapshot").c_str());
  const std::vector<topology::AsId> sources = diversity::sample_sources(
      net.graph(), flags.num("sources"), benchcfg::kSampleSeed);

  Stream stream;
  if (workload != Workload::kLookupRead) {
    stream.deltas = stratified_order(net.compiled(), sources, rng);
  }
  if (workload != Workload::kWhatIfScan) {
    std::vector<std::uint32_t> lap(sources.begin(), sources.end());
    for (std::size_t i = 0; i < kSourceLaps; ++i) {
      std::shuffle(lap.begin(), lap.end(), rng);
      stream.sources.insert(stream.sources.end(), lap.begin(), lap.end());
    }
  }
  if (workload == Workload::kRebaseRead) {
    stream.think_ms = kThinkMs;
    stream.read_rate_hz = kReadRateHz;
  }
  write_stream(flags.str("out"), stream);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    if (command == "refloop") {
      return perfbench::cmd_refloop();
    }
    const perfbench::Flags flags(argc, argv, 2);
    if (command == "gen") {
      return perfbench::cmd_gen(flags);
    }
    if (command == "drive") {
      return perfbench::cmd_drive(flags);
    }
    if (command == "check") {
      return perfbench::cmd_check(flags);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench-client " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: perfbench-client gen|drive|check|refloop ...\n";
  return 2;
}
