// Tests for failure what-ifs: link-down deltas through the overlay and
// the incremental sweep (remove-then-re-add identity, byte-identity at
// every thread count), the k-link failure universe (exhaustive order,
// deterministic sampling), and the surviving-diversity headline metric
// against a brute-force recompile of every failed graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "panagree/diversity/length3.hpp"
#include "panagree/scenario/failure.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/program.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/error.hpp"

namespace panagree::scenario {
namespace {

using topology::CompiledTopology;
using topology::Graph;
using topology::LinkType;

/// Applies a Delta the expensive way: rebuild the Graph from scratch with
/// removed links dropped and added links appended.
Graph mutate(const Graph& base, const Delta& delta) {
  Graph out;
  for (AsId as = 0; as < base.num_ases(); ++as) {
    const AsId id = out.add_as();
    out.info(id) = base.info(as);
  }
  const auto removed = [&](AsId x, AsId y) {
    for (const auto& [a, b] : delta.remove) {
      if ((a == x && b == y) || (a == y && b == x)) {
        return true;
      }
    }
    return false;
  };
  for (const auto& link : base.links()) {
    if (removed(link.a, link.b)) {
      continue;
    }
    if (link.type == LinkType::kProviderCustomer) {
      out.add_provider_customer(link.a, link.b);
    } else {
      out.add_peering(link.a, link.b);
    }
  }
  for (const LinkChange& change : delta.add) {
    if (change.type == LinkType::kProviderCustomer) {
      out.add_provider_customer(change.a, change.b);
    } else {
      out.add_peering(change.a, change.b);
    }
  }
  return out;
}

Graph star_graph() {
  // 0 provides to 1, 2, 3; 4 peers with 1.
  Graph g;
  for (int i = 0; i < 5; ++i) {
    g.add_as();
  }
  g.add_provider_customer(0, 1);
  g.add_provider_customer(0, 2);
  g.add_provider_customer(0, 3);
  g.add_peering(1, 4);
  return g;
}

topology::GeneratedTopology generated(std::size_t num_ases,
                                      std::uint64_t seed) {
  return topology::generate_internet([&] {
    topology::GeneratorParams params;
    params.num_ases = num_ases;
    params.tier1_count = 4;
    params.seed = seed;
    return params;
  }());
}

std::vector<AsId> every_source(const Graph& g) {
  std::vector<AsId> sources(g.num_ases());
  for (AsId as = 0; as < g.num_ases(); ++as) {
    sources[as] = as;
  }
  return sources;
}

TEST(FailureSets, ExhaustiveSingleLinkUniverseInLinkIdOrder) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  const FailureSets sets = failure_sets(c, 1, 0, 1);
  EXPECT_FALSE(sets.sampled);
  EXPECT_EQ(sets.universe, g.num_links());
  ASSERT_EQ(sets.sets.size(), g.num_links());
  for (std::size_t i = 0; i < sets.sets.size(); ++i) {
    const Delta& delta = sets.sets[i];
    EXPECT_TRUE(delta.add.empty());
    ASSERT_EQ(delta.remove.size(), 1u);
    EXPECT_EQ(delta.remove[0],
              std::make_pair(g.links()[i].a, g.links()[i].b));
  }
}

TEST(FailureSets, ExhaustiveK2CountsTheBinomial) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  const FailureSets sets = failure_sets(c, 2, 0, 1);
  EXPECT_FALSE(sets.sampled);
  EXPECT_EQ(sets.universe, 6u);  // C(4, 2)
  ASSERT_EQ(sets.sets.size(), 6u);
  // Every set removes two distinct links; all sets are distinct.
  std::set<std::vector<std::pair<AsId, AsId>>> unique;
  for (const Delta& delta : sets.sets) {
    ASSERT_EQ(delta.remove.size(), 2u);
    EXPECT_NE(delta.remove[0], delta.remove[1]);
    EXPECT_TRUE(unique.insert(delta.remove).second);
  }
}

TEST(FailureSets, SamplingIsDeterministicAndDistinct) {
  const auto topo = generated(120, 7);
  const CompiledTopology c(topo.graph);
  const std::size_t budget = 10;
  const FailureSets a = failure_sets(c, 2, budget, 99);
  const FailureSets b = failure_sets(c, 2, budget, 99);
  ASSERT_EQ(a.sets.size(), budget);
  EXPECT_TRUE(a.sampled);
  ASSERT_EQ(b.sets.size(), budget);
  std::set<std::vector<std::pair<AsId, AsId>>> unique;
  for (std::size_t i = 0; i < budget; ++i) {
    EXPECT_EQ(a.sets[i].remove, b.sets[i].remove) << "set " << i;
    EXPECT_TRUE(unique.insert(a.sets[i].remove).second) << "set " << i;
  }
}

TEST(FailureSets, DegenerateUniversesAreEmpty) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  EXPECT_TRUE(failure_sets(c, 0, 0, 1).sets.empty());
  const FailureSets too_many = failure_sets(c, 5, 0, 1);  // > num_links
  EXPECT_EQ(too_many.universe, 0u);
  EXPECT_TRUE(too_many.sets.empty());
}

TEST(AsFailure, DeltaDarkensEveryIncidentLink) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  const Delta delta = as_failure_delta(c, 0);
  ASSERT_EQ(delta.remove.size(), 3u);
  EXPECT_TRUE(delta.add.empty());
  // Applying it leaves 0 an island: the overlay rows match the pruned
  // recompiled graph.
  Overlay overlay(c);
  overlay.apply(delta);
  const Graph pruned_graph = mutate(g, delta);
  const CompiledTopology pruned(pruned_graph);
  for (AsId as = 0; as < c.num_ases(); ++as) {
    std::vector<std::pair<AsId, topology::NeighborRole>> overlaid;
    overlay.for_each_entry(as, [&](const Overlay::Entry& e) {
      overlaid.emplace_back(e.neighbor, e.role);
    });
    std::vector<std::pair<AsId, topology::NeighborRole>> expected;
    for (const auto& e : pruned.entries(as)) {
      expected.emplace_back(e.neighbor, e.role);
    }
    EXPECT_EQ(overlaid, expected) << "AS " << as;
  }
}

TEST(FailureSweep, RemoveThenReAddIsTheSweepIdentity) {
  const auto topo = generated(150, 11);
  const CompiledTopology c(topo.graph);
  const std::vector<AsId> sources = every_source(topo.graph);
  const auto enumerate = [](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  };

  const auto& links = topo.graph.links();
  const auto it = std::find_if(links.begin(), links.end(), [](const auto& l) {
    return l.type == LinkType::kPeering;
  });
  ASSERT_NE(it, links.end());
  Delta rewire;
  rewire.remove.emplace_back(it->a, it->b);
  rewire.add.push_back({it->a, it->b, LinkType::kPeering});

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepConfig config;
    config.threads = threads;
    config.dirty_radius = kLength3DirtyRadius;
    SweepRunner<SourcePathSet> runner(c, sources, config);
    runner.prime(enumerate);
    const std::vector<SourcePathSet> results =
        runner.evaluate(rewire, enumerate);
    ASSERT_EQ(results.size(), sources.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], runner.baseline()[i])
          << "source " << sources[i] << " at " << threads << " threads";
    }
  }
}

TEST(CountDiversity, MatchesASetBasedRecount) {
  const auto topo = generated(120, 7);
  const CompiledTopology c(topo.graph);
  const std::vector<AsId> sources = every_source(topo.graph);
  SweepRunner<SourcePathSet> runner(c, sources, SweepConfig{});
  runner.prime([](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  });

  std::vector<const SourcePathSet*> refs;
  for (const SourcePathSet& sets : runner.baseline()) {
    refs.push_back(&sets);
  }
  const DiversityCounts counts = count_diversity(refs);

  std::size_t grc_paths = 0;
  std::size_t ma_paths = 0;
  std::set<std::pair<AsId, AsId>> grc_pairs;
  std::set<std::pair<AsId, AsId>> ma_pairs;
  for (const SourcePathSet* result : refs) {
    grc_paths += result->grc().size();
    ma_paths += result->ma().size();
    for (const auto& path : result->grc()) {
      grc_pairs.emplace(path.src, path.dst);
    }
    for (const auto& path : result->ma()) {
      ma_pairs.emplace(path.src, path.dst);
    }
  }
  std::size_t ma_extra = 0;
  for (const auto& pair : ma_pairs) {
    if (!grc_pairs.contains(pair)) {
      ++ma_extra;
    }
  }
  EXPECT_EQ(counts.grc_paths, grc_paths);
  EXPECT_EQ(counts.ma_paths, ma_paths);
  EXPECT_EQ(counts.grc_pairs, grc_pairs.size());
  EXPECT_EQ(counts.ma_extra_pairs, ma_extra);
  EXPECT_EQ(counts.total_paths(), grc_paths + ma_paths);
  EXPECT_EQ(counts.reachable_pairs(), grc_pairs.size() + ma_extra);
  EXPECT_GT(counts.total_paths(), 0u);
}

TEST(FailureDiversity, RequiresAPrimedRunner) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  SweepRunner<SourcePathSet> runner(c, {0, 1}, SweepConfig{});
  const FailureSets sets = failure_sets(c, 1, 0, 1);
  EXPECT_THROW((void)failure_diversity(runner, Delta{}, sets.sets),
               util::PreconditionError);
}

TEST(FailureDiversity, EqualsBruteForceRecompileOfEveryFailedGraph) {
  const auto topo = generated(80, 21);
  const CompiledTopology c(topo.graph);
  const std::vector<AsId> sources = every_source(topo.graph);
  SweepConfig config;
  config.threads = 2;
  config.dirty_radius = kLength3DirtyRadius;
  SweepRunner<SourcePathSet> runner(c, sources, config);
  runner.prime([](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  });
  const FailureSets failures = failure_sets(c, 1, 8, 5);
  ASSERT_FALSE(failures.sets.empty());

  const auto candidates = candidate_peering_deltas(c, 2, 5);
  ASSERT_FALSE(candidates.empty());
  std::vector<Delta> deployments;
  deployments.push_back(Delta{});  // the do-nothing baseline
  deployments.push_back(candidates.front());

  for (const Delta& deployment : deployments) {
    const FailureDiversity fast =
        failure_diversity(runner, deployment, failures.sets);

    // Brute force: recompile each failed graph from scratch and enumerate
    // every source on it.
    FailureDiversity slow;
    slow.sets = failures.sets.size();
    double paths_sum = 0.0;
    double pairs_sum = 0.0;
    bool first = true;
    for (std::size_t i = 0; i < failures.sets.size(); ++i) {
      const Delta delta = deployment.empty()
                              ? failures.sets[i]
                              : compose(deployment, failures.sets[i]);
      const Graph failed_graph = mutate(topo.graph, delta);
      const CompiledTopology failed(failed_graph);
      const Overlay view(failed);
      std::vector<SourcePathSet> results;
      results.reserve(sources.size());
      for (const AsId src : sources) {
        results.push_back(enumerate_length3(view, src));
      }
      std::vector<const SourcePathSet*> refs;
      for (const SourcePathSet& sets : results) {
        refs.push_back(&sets);
      }
      const DiversityCounts counts = count_diversity(refs);
      paths_sum += static_cast<double>(counts.total_paths());
      pairs_sum += static_cast<double>(counts.reachable_pairs());
      if (first || counts.total_paths() < slow.min.total_paths()) {
        slow.min = counts;
        slow.worst_set = i;
        first = false;
      }
    }
    slow.mean_paths = paths_sum / static_cast<double>(failures.sets.size());
    slow.mean_pairs = pairs_sum / static_cast<double>(failures.sets.size());

    EXPECT_EQ(fast.sets, slow.sets);
    EXPECT_EQ(fast.min, slow.min);
    EXPECT_EQ(fast.worst_set, slow.worst_set);
    EXPECT_DOUBLE_EQ(fast.mean_paths, slow.mean_paths);
    EXPECT_DOUBLE_EQ(fast.mean_pairs, slow.mean_pairs);
  }
}

TEST(FailureDiversity, ByteIdenticalAtEveryThreadCount) {
  const auto topo = generated(150, 11);
  const CompiledTopology c(topo.graph);
  const std::vector<AsId> sources = every_source(topo.graph);
  const FailureSets failures = failure_sets(c, 1, 6, 5);
  const auto candidates = candidate_peering_deltas(c, 1, 5);
  ASSERT_FALSE(candidates.empty());

  std::vector<FailureDiversity> per_thread;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepConfig config;
    config.threads = threads;
    config.dirty_radius = kLength3DirtyRadius;
    SweepRunner<SourcePathSet> runner(c, sources, config);
    runner.prime([](const Overlay& overlay, AsId src) {
      return enumerate_length3(overlay, src);
    });
    per_thread.push_back(
        failure_diversity(runner, candidates.front(), failures.sets));
  }
  for (std::size_t i = 1; i < per_thread.size(); ++i) {
    EXPECT_EQ(per_thread[i].min, per_thread[0].min);
    EXPECT_EQ(per_thread[i].worst_set, per_thread[0].worst_set);
    EXPECT_EQ(per_thread[i].mean_paths, per_thread[0].mean_paths);
    EXPECT_EQ(per_thread[i].mean_pairs, per_thread[0].mean_pairs);
  }
}

}  // namespace
}  // namespace panagree::scenario
