// Tests for the parallel source driver (paths::map_indices): the guided
// atomic cursor hands out every index exactly once for any count, worker
// count and serial threshold, and - the driver's contract - enumeration
// output is byte-identical at 1, 2, and 8 threads even on adversarially
// skewed workloads (one mega-degree source among thousands of leaves).
// Placement is the kernel's: threads = 0 counts the caller's allowed
// cpus, and workers inherit the caller's cpu mask.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "panagree/paths/enumerator.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/topology/graph.hpp"

namespace panagree::paths {
namespace {

using topology::AsId;
using topology::CompiledTopology;
using topology::Graph;

// ------------------------------------------------------------ map_indices

/// An adversarially skewed per-index workload: index 0 costs ~10000x an
/// ordinary index. Results encode the index so any slot mixup is
/// detectable.
std::uint64_t skewed_work(std::size_t i) {
  const std::size_t spins = i == 0 ? 1000000 : 100;
  std::uint64_t acc = i;
  for (std::size_t s = 0; s < spins; ++s) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc ^ i;
}

TEST(MapIndices, ByteIdenticalAcrossThreadCountsOnSkewedWork) {
  constexpr std::size_t kCount = 3000;
  std::vector<std::uint64_t> serial(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    serial[i] = skewed_work(i);
  }
  for (const std::size_t threads : {1U, 2U, 8U}) {
    EXPECT_EQ(map_indices(kCount, threads, skewed_work), serial)
        << "threads=" << threads;
  }
}

// The cursor's contract: whatever the count, worker count and serial
// threshold - counts below the worker count included - every index runs
// exactly once and its result lands in its own slot.
TEST(MapIndices, EveryIndexRunsExactlyOnce) {
  for (const std::size_t count :
       {0U, 1U, 2U, 3U, 31U, 32U, 33U, 1000U, 1U << 18}) {
    std::vector<std::atomic<std::uint32_t>> hits(count);
    const auto fn = [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      return i;
    };
    for (const std::size_t threads : {1U, 2U, 3U, 8U}) {
      for (const bool default_threshold : {false, true}) {
        for (auto& h : hits) {
          h.store(0, std::memory_order_relaxed);
        }
        const std::vector<std::size_t> results =
            default_threshold ? map_indices(count, threads, fn)
                              : map_indices(count, threads, fn,
                                            /*min_parallel=*/2);
        const std::string where =
            "count=" + std::to_string(count) +
            " threads=" + std::to_string(threads) +
            (default_threshold ? " min_parallel=default" : " min_parallel=2");
        ASSERT_EQ(results.size(), count) << where;
        for (std::size_t i = 0; i < count; ++i) {
          ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1U)
              << "index " << i << ", " << where;
          ASSERT_EQ(results[i], i) << "index " << i << ", " << where;
        }
      }
    }
  }
}

TEST(MapIndices, ExplicitMinParallelOverloadStillServesSmallCounts) {
  const auto fn = [](std::size_t i) { return i * 3 + 1; };
  const auto parallel = map_indices(8, 4, fn, /*min_parallel=*/2);
  const auto serial = map_indices(8, 4, fn);  // 8 < kMinParallelSources
  EXPECT_EQ(parallel, serial);
}

TEST(MapIndices, PropagatesFirstExceptionAfterDraining) {
  EXPECT_THROW((void)map_indices(5000, 8,
                                 [](std::size_t i) -> int {
                                   if (i == 4321) {
                                     throw std::runtime_error("boom");
                                   }
                                   return static_cast<int>(i);
                                 }),
               std::runtime_error);
}

// ----------------------------------------- skewed end-to-end enumeration

/// The adversarial shape: one mega-degree source among thousands of
/// leaves. The hub is a customer of every provider, so its length-3
/// fan-out sweeps every provider's whole customer cone while a leaf only
/// sees its own provider's cone - a per-source workload skewed by ~100x.
struct SkewedFixture {
  Graph graph;
  AsId hub = 0;

  SkewedFixture() {
    constexpr std::size_t kProviders = 100;
    constexpr std::size_t kLeavesPerProvider = 30;
    hub = graph.add_as("hub");
    std::vector<AsId> providers;
    for (std::size_t p = 0; p < kProviders; ++p) {
      const AsId provider = graph.add_as();
      graph.add_provider_customer(provider, hub);
      providers.push_back(provider);
      for (std::size_t c = 0; c < kLeavesPerProvider; ++c) {
        graph.add_provider_customer(provider, graph.add_as());
      }
    }
    // A sprinkle of provider peerings so the walks take peer steps too.
    for (std::size_t p = 0; p + 1 < kProviders; p += 7) {
      graph.add_peering(providers[p], providers[p + 1]);
    }
  }
};

TEST(MapSources, SkewedEnumerationByteIdenticalAcrossThreads) {
  const SkewedFixture fixture;
  const CompiledTopology compiled(fixture.graph);

  std::vector<AsId> sources(fixture.graph.num_ases());
  std::iota(sources.begin(), sources.end(), AsId{0});

  const BasicPathEnumerator<CompiledTopology> enumerator(compiled);
  const auto enumerate = [&](AsId src) {
    std::vector<Path> out;
    enumerator.visit_paths(src, 3, ValleyFreeStep{}, [&](const Path& path) {
      out.push_back(path);
      return true;
    });
    return out;
  };

  std::vector<std::vector<Path>> serial(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    serial[i] = enumerate(sources[i]);
  }
  ASSERT_GT(serial[fixture.hub].size(), 1000U);  // the skew is real

  for (const std::size_t threads : {1U, 2U, 8U}) {
    const auto parallel = map_sources(sources, threads, enumerate);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i])
          << "source " << i << ", threads=" << threads;
    }
  }
}

// ----------------------------------------------------------- allowed cpus

/// Narrows the calling thread to one cpu for the test's lifetime and
/// restores the previous mask on exit.
class NarrowedAffinity {
 public:
  NarrowedAffinity() {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE && cpu_ < 0; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        cpu_ = cpu;
      }
    }
    if (cpu_ < 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    narrowed_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~NarrowedAffinity() {
    if (narrowed_) {
      (void)sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  NarrowedAffinity(const NarrowedAffinity&) = delete;
  NarrowedAffinity& operator=(const NarrowedAffinity&) = delete;

  [[nodiscard]] bool narrowed() const { return narrowed_; }
  [[nodiscard]] int cpu() const { return cpu_; }

 private:
  cpu_set_t saved_{};
  int cpu_ = -1;
  bool narrowed_ = false;
};

TEST(ResolveThreadCount, ZeroCountsTheCallersAllowedCpus) {
  const NarrowedAffinity narrowed;
  ASSERT_TRUE(narrowed.narrowed()) << "sched_setaffinity refused";
  EXPECT_EQ(resolve_thread_count(0), 1U);
  EXPECT_EQ(affinity_summary().rfind("cpus=1/", 0), 0U)
      << affinity_summary();

  // Each worker reports the mask it runs under: exactly the caller's cpu.
  const std::thread::id caller = std::this_thread::get_id();
  const auto masks = map_indices(
      2, 2,
      [&](std::size_t) {
        cpu_set_t set;
        CPU_ZERO(&set);
        const bool same_mask = sched_getaffinity(0, sizeof(set), &set) == 0 &&
                               CPU_COUNT(&set) == 1 &&
                               CPU_ISSET(narrowed.cpu(), &set);
        return static_cast<int>(same_mask &&
                                std::this_thread::get_id() != caller);
      },
      /*min_parallel=*/2);
  EXPECT_EQ(masks, (std::vector<int>{1, 1}));
}

}  // namespace
}  // namespace panagree::paths
