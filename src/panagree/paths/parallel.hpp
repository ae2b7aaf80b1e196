// Per-source parallel driver for path enumeration.
//
// Every large-scale analysis in this repo fans out over independent source
// ASes (SPP compilation per node, diversity counts per sampled AS, the
// optimizer's candidate scenarios). The driver runs a per-index function
// over a std::thread pool and collects results *in index order*: each
// result lands in its index's preallocated slot, so the merged output is
// byte-identical for every thread count, including 1. Parallelism never
// changes results, only wall-clock time.
//
// Scheduling is one shared atomic cursor with guided self-scheduling: a
// worker claims max(1, remaining / (8 x workers)) indices per CAS. Chunks
// shrink as the space drains, so trivial items cost a few hundred claims
// however many there are, and the heavy-tailed per-source costs of a real
// AS topology (a handful of hubs dominate a sweep) end in one-index claims
// that spread the last heavy sources over every worker. Per-worker ranges
// with stealing and degree-based seeding were measured against this and
// showed no win (README, "Parallel source driver").
//
// Where workers run is left to the kernel: they inherit the calling
// thread's cpu mask, so a `taskset` or cgroup placement of the process
// holds for every fan-out, and "one worker per cpu" (threads = 0) counts
// the cpus in that mask.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "panagree/obs/metrics.hpp"
#include "panagree/topology/graph.hpp"

namespace panagree::paths {

namespace detail {

/// Driver metrics. Workers tally locally and flush once at exit, so the
/// instrumented hot loop adds no atomics at all; under PANAGREE_OBS_OFF
/// the tally code compiles out entirely (obs::enabled() is constexpr).
struct DriverMetrics {
  obs::Counter& items_claimed;
  obs::Histogram& worker_busy_ns;
};

[[nodiscard]] inline DriverMetrics& driver_metrics() {
  static DriverMetrics metrics{
      obs::Registry::global().counter("paths.items_claimed"),
      obs::Registry::global().histogram("paths.worker_busy_ns"),
  };
  return metrics;
}

/// One worker's local tallies; flushed by the destructor (covers every
/// exit path of the worker body, including the failure returns).
struct WorkerTally {
  std::uint64_t claimed = 0;
  std::uint64_t busy_ns = 0;

  ~WorkerTally() {
    if constexpr (obs::enabled()) {
      DriverMetrics& metrics = driver_metrics();
      if (claimed != 0) {
        metrics.items_claimed.add(claimed);
      }
      metrics.worker_busy_ns.record(busy_ns);
    }
  }
};

[[nodiscard]] inline std::uint64_t busy_clock_ns() noexcept {
  if constexpr (obs::enabled()) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  } else {
    return 0;
  }
}

}  // namespace detail

/// Resolves a requested worker count: 0 means one per cpu the calling
/// thread may run on (its sched_getaffinity mask; the online cpu count
/// where that call fails), anything else is taken literally. Always >= 1.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t requested);

/// Largest worker count the tools accept (--threads, PANAGREE_THREADS):
/// glibc's CPU_SETSIZE, the most cpus the affinity mask behind
/// resolve_thread_count(0) can hold. A larger request would only start
/// more threads than there are cpus to run them.
inline constexpr std::size_t kMaxThreads = 1024;

/// "cpus=K/N": K = resolve_thread_count(0), the cpus the calling thread
/// may run on, of N online - what panagree-serve reports in its
/// readiness line.
[[nodiscard]] std::string affinity_summary();

/// The default `min_parallel` of map_indices: below this many indices the
/// driver runs serially regardless of the requested worker count - thread
/// spawn/join overhead dwarfs tiny workloads, and results are identical
/// either way. Callers whose every index is a whole enumeration,
/// contribution or scenario pass 2 instead: SweepRunner's prime and dirty
/// fan-out, MetricsAggregator::contributions (prime's fold) and the
/// optimizer's candidate map.
inline constexpr std::size_t kMinParallelSources = 32;

/// Runs `fn(i)` for every index in [0, count) and returns the results in
/// index order - the generic core of the per-source driver, also the
/// fan-out for any other independent unit of work (the deployment
/// optimizer maps over *candidate scenarios* with it). `fn` must be
/// callable concurrently from multiple threads; its result type must be
/// default-constructible and movable. The first exception thrown by any
/// invocation is rethrown on the calling thread after all workers have
/// drained. Below `min_parallel` indices the loop runs serially on the
/// calling thread - keep the default for cheap per-index units, lower it
/// when each unit is a whole enumeration or scenario.
template <typename Fn>
[[nodiscard]] auto map_indices(std::size_t count, std::size_t threads,
                               Fn&& fn,
                               std::size_t min_parallel = kMinParallelSources)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  // std::vector<bool> packs bits: concurrent writes to distinct indices
  // would race on shared bytes. Return char/int instead.
  static_assert(!std::is_same_v<Result, bool>,
                "map_indices: bool results are not thread-safe "
                "(vector<bool> packs bits)");
  std::vector<Result> results(count);
  const std::size_t workers = std::min(resolve_thread_count(threads), count);
  if (workers <= 1 || count < min_parallel) {
    detail::WorkerTally tally;
    const std::uint64_t start = detail::busy_clock_ns();
    for (std::size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    tally.busy_ns = detail::busy_clock_ns() - start;
    tally.claimed = count;
    return results;
  }

  // Guided self-scheduling: every claim is one CAS on the shared cursor
  // and takes 1/(8 x workers) of what is left, at least one index. Early
  // claims are large (2^18 trivial items cost ~300 claims), the tail goes
  // out one index at a time, so a heavy source near the end never holds
  // a batch of others hostage.
  const std::size_t divisor = 8 * workers;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  const auto worker = [&] {
    detail::WorkerTally tally;  // flushes to the obs registry at exit
    std::size_t begin = cursor.load(std::memory_order_relaxed);
    while (begin < count && !failed.load(std::memory_order_relaxed)) {
      const std::size_t end =
          begin + std::max<std::size_t>(1, (count - begin) / divisor);
      // On failure the CAS reloads `begin`; retry with the new remainder.
      if (!cursor.compare_exchange_weak(begin, end,
                                        std::memory_order_relaxed)) {
        continue;
      }
      const std::uint64_t start = detail::busy_clock_ns();
      try {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = fn(i);
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) {
          error = std::current_exception();
        }
        return;
      }
      tally.busy_ns += detail::busy_clock_ns() - start;
      tally.claimed += end - begin;
      begin = cursor.load(std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  try {
    for (std::size_t t = 0; t < workers; ++t) {
      pool.emplace_back(worker);
    }
  } catch (...) {
    // Thread creation failed (resource pressure): drain the workers that
    // did start, then let the error propagate - never terminate().
    failed.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) {
      t.join();
    }
    throw;
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (error) {
    std::rethrow_exception(error);
  }
  return results;
}

/// Runs `fn(sources[i])` for every i and returns the results in source
/// order (see map_indices for the concurrency contract).
template <typename Fn>
[[nodiscard]] auto map_sources(const std::vector<topology::AsId>& sources,
                               std::size_t threads, Fn&& fn,
                               std::size_t min_parallel = kMinParallelSources)
    -> std::vector<std::invoke_result_t<Fn&, topology::AsId>> {
  return map_indices(
      sources.size(), threads,
      [&](std::size_t i) { return fn(sources[i]); }, min_parallel);
}

}  // namespace panagree::paths
