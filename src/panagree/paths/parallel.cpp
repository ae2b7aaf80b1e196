#include "panagree/paths/parallel.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace panagree::paths {

namespace {

std::size_t online_cpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) {
    return requested;
  }
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
#endif
  return online_cpus();
}

std::string affinity_summary() {
  return "cpus=" + std::to_string(resolve_thread_count(0)) + "/" +
         std::to_string(online_cpus());
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> partition_by_cost(
    std::span<const std::uint64_t> costs, std::size_t count,
    std::size_t workers) {
  util::require(workers > 0, "partition_by_cost: need at least one worker");
  util::require(count <= std::numeric_limits<std::uint32_t>::max(),
                "partition_by_cost: count exceeds 32-bit index space");
  util::require(costs.empty() || costs.size() == count,
                "partition_by_cost: costs must be empty or one per index");
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  ranges.reserve(workers);
  if (costs.empty()) {
    // Equal-size contiguous slices; the first (count % workers) get the
    // extra index.
    const std::size_t base = count / workers;
    const std::size_t extra = count % workers;
    std::uint32_t begin = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::uint32_t size =
          static_cast<std::uint32_t>(base + (w < extra ? 1 : 0));
      ranges.emplace_back(begin, begin + size);
      begin += size;
    }
    return ranges;
  }
  std::uint64_t total = 0;
  for (const std::uint64_t cost : costs) {
    total += cost;
  }
  // Greedy prefix cuts: close a range once its cost reaches the average
  // share of the workers still to seed. Recomputing the share from the
  // *remaining* cost keeps one dominant index from starving the tail -
  // the classic linear-scan approximation of balanced contiguous
  // partitioning, plenty for a seed layout that stealing will correct
  // anyway.
  std::uint32_t begin = 0;
  std::uint64_t used = 0;
  for (std::size_t w = 0; w + 1 < workers; ++w) {
    const std::size_t left = workers - w;
    const std::uint64_t share = (total - used + left - 1) / left;
    std::uint32_t end = begin;
    std::uint64_t bucket = 0;
    // Take whole indices until this range's cost reaches its share of
    // what is left. An index is never split, so one dominant source may
    // overshoot - it then owns the range alone and the share recomputes
    // over the remainder for the next worker.
    while (end < count && bucket < share) {
      bucket += costs[end];
      ++end;
    }
    // Leave at least one index for each remaining worker when possible
    // (empty trailing seeds would make those workers start by stealing).
    if (const std::size_t tail = left - 1; count >= tail) {
      end = std::min(end, static_cast<std::uint32_t>(count - tail));
    }
    end = std::max(end, begin);
    ranges.emplace_back(begin, end);
    for (std::uint32_t i = begin; i < end; ++i) {
      used += costs[i];
    }
    begin = end;
  }
  ranges.emplace_back(begin, static_cast<std::uint32_t>(count));
  return ranges;
}

std::vector<std::uint64_t> two_hop_cost_estimates(
    const topology::CompiledTopology& topo,
    std::span<const topology::AsId> sources) {
  std::vector<std::uint64_t> costs;
  costs.reserve(sources.size());
  for (const topology::AsId src : sources) {
    std::uint64_t cost = 1;
    topo.for_each_entry(src, [&](const topology::CompiledTopology::Entry& e) {
      cost += topo.degree(e.neighbor);
    });
    costs.push_back(cost);
  }
  return costs;
}

}  // namespace panagree::paths
