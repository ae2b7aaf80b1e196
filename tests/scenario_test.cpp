// Tests for the scenario engine: overlay semantics (a Delta over the CSR
// snapshot behaves exactly like recompiling the mutated graph) and the
// incremental sweep guarantees (byte-identical results at every thread
// count, cache accounting, validation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "panagree/diversity/geodistance.hpp"
#include "panagree/diversity/length3.hpp"
#include "panagree/geo/coordinates.hpp"
#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/overlay.hpp"
#include "panagree/scenario/sweep.hpp"
#include "panagree/topology/examples.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/rng.hpp"

namespace panagree::scenario {
namespace {

using topology::CompiledTopology;
using topology::Graph;
using topology::LinkType;
using topology::NeighborRole;

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

/// The overlaid adjacency row of `as` (neighbor/role pairs, in order).
std::vector<std::pair<AsId, NeighborRole>> overlay_row(const Overlay& o,
                                                       AsId as) {
  std::vector<std::pair<AsId, NeighborRole>> row;
  o.for_each_entry(as, [&](const Overlay::Entry& e) {
    row.emplace_back(e.neighbor, e.role);
  });
  return row;
}

std::vector<std::pair<AsId, NeighborRole>> compiled_row(
    const CompiledTopology& c, AsId as) {
  std::vector<std::pair<AsId, NeighborRole>> row;
  for (const auto& e : c.entries(as)) {
    row.emplace_back(e.neighbor, e.role);
  }
  return row;
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

TEST(Overlay, EmptyOverlayIsTheBase) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  const Overlay o(c);
  EXPECT_TRUE(o.empty());
  EXPECT_EQ(o.num_ases(), c.num_ases());
  for (AsId as = 0; as < c.num_ases(); ++as) {
    EXPECT_EQ(overlay_row(o, as), compiled_row(c, as));
  }
  EXPECT_EQ(o.role_of(1, 0), NeighborRole::kProvider);
  EXPECT_EQ(o.link_between(1, 4), c.link_between(1, 4));
  // Base link ids classify as base even before any apply() (regression:
  // a threshold of 0 made the metrics layer treat every baseline link as
  // overlay-added and silently fall back to centroid geodistances).
  EXPECT_EQ(o.first_added_link_id(), g.num_links());
  EXPECT_LT(*o.link_between(1, 4), o.first_added_link_id());
}

TEST(Overlay, AddRemoveAndRewireMatchRecompiledGraph) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  Delta delta;
  delta.add.push_back({2, 3, LinkType::kPeering});
  delta.add.push_back({4, 2, LinkType::kProviderCustomer});
  delta.remove.emplace_back(0, 3);
  // Rewire: peering 1-4 becomes provider 1 -> customer 4.
  delta.remove.emplace_back(1, 4);
  delta.add.push_back({1, 4, LinkType::kProviderCustomer});

  Overlay o(c);
  o.apply(delta);
  EXPECT_FALSE(o.empty());
  EXPECT_EQ(o.touched(), (std::vector<AsId>{0, 1, 2, 3, 4}));

  const Graph mutated = mutate(g, delta);
  const CompiledTopology expected(mutated);
  for (AsId as = 0; as < c.num_ases(); ++as) {
    EXPECT_EQ(overlay_row(o, as), compiled_row(expected, as)) << "as " << as;
    for (AsId other = 0; other < c.num_ases(); ++other) {
      EXPECT_EQ(o.role_of(as, other), expected.role_of(as, other))
          << as << " vs " << other;
    }
  }
  EXPECT_EQ(o.role_of(4, 1), NeighborRole::kProvider);
  EXPECT_FALSE(o.role_of(3, 0).has_value());

  // Added links resolve through synthetic ids.
  const auto id = o.link_between(2, 3);
  ASSERT_TRUE(id.has_value());
  ASSERT_GE(*id, o.first_added_link_id());
  EXPECT_EQ(o.added_link(*id), (LinkChange{2, 3, LinkType::kPeering}));

  o.clear();
  EXPECT_TRUE(o.empty());
  EXPECT_EQ(overlay_row(o, 3), compiled_row(c, 3));
}

TEST(Overlay, RejectsInvalidDeltas) {
  const Graph g = star_graph();
  const CompiledTopology c(g);
  Overlay o(c);
  Delta dup_add;
  dup_add.add.push_back({2, 3, LinkType::kPeering});
  dup_add.add.push_back({3, 2, LinkType::kPeering});
  EXPECT_THROW(o.apply(dup_add), util::PreconditionError);
  EXPECT_TRUE(o.empty());

  Delta existing;
  existing.add.push_back({0, 1, LinkType::kPeering});
  EXPECT_THROW(o.apply(existing), util::PreconditionError);

  Delta self_loop;
  self_loop.add.push_back({2, 2, LinkType::kPeering});
  EXPECT_THROW(o.apply(self_loop), util::PreconditionError);

  Delta not_a_link;
  not_a_link.remove.emplace_back(2, 3);
  EXPECT_THROW(o.apply(not_a_link), util::PreconditionError);

  Delta out_of_range;
  out_of_range.add.push_back({2, 99, LinkType::kPeering});
  EXPECT_THROW(o.apply(out_of_range), util::PreconditionError);
}

TEST(Overlay, EnumerationMatchesRecompiledAnalyzer) {
  const auto topo = topology::generate_internet([] {
    topology::GeneratorParams params;
    params.num_ases = 150;
    params.tier1_count = 4;
    params.seed = 11;
    return params;
  }());
  const CompiledTopology compiled(topo.graph);
  Delta delta;
  delta.add.push_back({20, 120, LinkType::kPeering});
  delta.remove.emplace_back(topo.graph.links().front().a,
                            topo.graph.links().front().b);
  Overlay overlay(compiled);
  overlay.apply(delta);

  const Graph mutated = mutate(topo.graph, delta);
  const diversity::Length3Analyzer analyzer(mutated);
  for (AsId src = 0; src < compiled.num_ases(); src += 7) {
    const SourcePathSet sets = enumerate_length3(overlay, src);
    EXPECT_TRUE(std::ranges::equal(sets.grc(), analyzer.grc_paths(src)))
        << "src " << src;
    EXPECT_TRUE(std::ranges::equal(sets.ma(), analyzer.ma_paths(src)))
        << "src " << src;
  }
}

/// Random single- and multi-link deltas over a generated topology.
std::vector<Delta> random_deltas(const Graph& g, std::size_t count,
                                 util::Rng& rng) {
  std::vector<Delta> deltas;
  while (deltas.size() < count) {
    Delta delta;
    const std::size_t adds = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < adds; ++i) {
      const auto a = static_cast<AsId>(rng.uniform_index(g.num_ases()));
      const auto b = static_cast<AsId>(rng.uniform_index(g.num_ases()));
      if (a == b || g.link_between(a, b).has_value()) {
        continue;
      }
      const bool dup = std::any_of(
          delta.add.begin(), delta.add.end(), [&](const LinkChange& c) {
            return (c.a == a && c.b == b) || (c.a == b && c.b == a);
          });
      if (!dup) {
        delta.add.push_back({a, b, rng.bernoulli(0.7)
                                       ? LinkType::kPeering
                                       : LinkType::kProviderCustomer});
      }
    }
    if (rng.bernoulli(0.5)) {
      const auto& link = g.link(rng.uniform_index(g.num_links()));
      const bool dup = std::any_of(
          delta.add.begin(), delta.add.end(), [&](const LinkChange& c) {
            return (c.a == link.a && c.b == link.b) ||
                   (c.a == link.b && c.b == link.a);
          });
      if (!dup) {
        delta.remove.emplace_back(link.a, link.b);
      }
    }
    if (!delta.empty()) {
      deltas.push_back(std::move(delta));
    }
  }
  return deltas;
}

/// The 200-AS Internet the SweepEquivalence tests sweep over.
topology::GeneratedTopology sweep_topology() {
  topology::GeneratorParams params;
  params.num_ases = 200;
  params.tier1_count = 4;
  params.seed = 77;
  return topology::generate_internet(params);
}

/// The tentpole property: for randomized delta batches, the incremental
/// sweep result of every scenario is byte-identical to a full
/// recompile-and-recompute of the mutated graph, at 1, 2, and 8 threads.
class SweepEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepEquivalence, IncrementalMatchesFullRecomputeAtAnyThreadCount) {
  const auto topo = sweep_topology();
  const Graph& g = topo.graph;
  const CompiledTopology compiled(g);
  util::Rng rng(GetParam());
  const auto deltas = random_deltas(g, 6, rng);

  std::vector<AsId> sources;
  for (AsId as = 0; as < g.num_ases(); as += 3) {
    sources.push_back(as);
  }

  const auto enumerate = [](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  };
  // Both the proven-exact length-3 radius (1) and the generic bound (2)
  // must match the ground truth; the tighter radius must actually cache.
  std::vector<std::vector<std::vector<SourcePathSet>>> by_config;
  for (const auto& [threads, radius] :
       {std::pair<std::size_t, std::size_t>{1, kLength3DirtyRadius},
        {2, kLength3DirtyRadius},
        {8, kLength3DirtyRadius},
        {2, 2}}) {
    SweepConfig config;
    config.threads = threads;
    config.dirty_radius = radius;
    SweepRunner<SourcePathSet> runner(compiled, sources, config);
    runner.prime(enumerate);
    std::vector<std::vector<SourcePathSet>> per_delta;
    for (const Delta& delta : deltas) {
      SweepStats stats;
      per_delta.push_back(runner.evaluate(delta, enumerate, &stats));
      EXPECT_EQ(stats.recomputed_sources + stats.cached_sources,
                sources.size());
      EXPECT_GT(stats.recomputed_sources, 0u);
      if (radius == kLength3DirtyRadius) {
        EXPECT_GT(stats.cached_sources, 0u);
      }
    }
    by_config.push_back(std::move(per_delta));
  }

  // Thread-count (and radius) invariance: byte-identical across all
  // configurations.
  EXPECT_EQ(by_config[0], by_config[1]);
  EXPECT_EQ(by_config[0], by_config[2]);
  EXPECT_EQ(by_config[0], by_config[3]);

  // Ground truth: recompile the mutated graph and recompute everything.
  for (std::size_t d = 0; d < deltas.size(); ++d) {
    const Graph mutated = mutate(g, deltas[d]);
    const CompiledTopology recompiled(mutated);
    const Overlay none(recompiled);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(by_config[0][d][i], enumerate_length3(none, sources[i]))
          << "delta " << d << " source " << sources[i];
    }
  }
}

/// evaluate_dirty_visit spreads the dirty sources over its workers but
/// visits them serially in source order: at every worker count the
/// visited positions are exactly the dirty ones, ascending, and each
/// result equals evaluate()'s slot.
TEST_P(SweepEquivalence, DirtyVisitMatchesEvaluateAtAnyWorkerCount) {
  const auto topo = sweep_topology();
  const CompiledTopology compiled(topo.graph);
  util::Rng rng(GetParam());
  const auto deltas = random_deltas(topo.graph, 6, rng);
  std::vector<AsId> sources;
  for (AsId as = 0; as < topo.graph.num_ases(); as += 3) {
    sources.push_back(as);
  }
  const auto enumerate = [](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  };
  SweepConfig config;
  config.dirty_radius = kLength3DirtyRadius;
  SweepRunner<SourcePathSet> runner(compiled, sources, config);
  runner.prime(enumerate);
  for (const Delta& delta : deltas) {
    SweepStats expected;
    const std::vector<SourcePathSet> full =
        runner.evaluate(delta, enumerate, &expected);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      std::vector<std::size_t> positions;
      SweepStats stats;
      runner.evaluate_dirty_visit(
          delta, enumerate,
          [&](std::size_t i, const Overlay&, const SourcePathSet& result) {
            EXPECT_TRUE(positions.empty() || positions.back() < i);
            positions.push_back(i);
            EXPECT_EQ(result, full[i]) << "threads " << threads;
          },
          threads, &stats);
      EXPECT_EQ(positions.size(), expected.recomputed_sources);
      EXPECT_EQ(stats.recomputed_sources, expected.recomputed_sources);
      EXPECT_EQ(stats.ball_size, expected.ball_size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(SweepRunner, EmptyDeltaServesEverythingFromCache) {
  const Graph g = star_graph();
  const CompiledTopology compiled(g);
  SweepRunner<SourcePathSet> runner(compiled, {0, 1, 2, 3, 4});
  runner.prime([](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  });
  SweepStats stats;
  const auto results = runner.evaluate(
      Delta{},
      [](const Overlay& overlay, AsId src) {
        return enumerate_length3(overlay, src);
      },
      &stats);
  EXPECT_EQ(stats.recomputed_sources, 0u);
  EXPECT_EQ(stats.cached_sources, 5u);
  EXPECT_EQ(results, runner.baseline());
}

TEST(SweepRunner, RequiresPriming) {
  const Graph g = star_graph();
  const CompiledTopology compiled(g);
  SweepRunner<SourcePathSet> runner(compiled, {0, 1});
  EXPECT_THROW(static_cast<void>(runner.baseline()),
               util::PreconditionError);
  EXPECT_THROW(runner.evaluate(Delta{},
                               [](const Overlay& overlay, AsId src) {
                                 return enumerate_length3(overlay, src);
                               }),
               util::PreconditionError);
}

/// rebase_adopted checks the whole position list before it touches the
/// cache: a rejected list leaves baseline() and state() as they were.
TEST(SweepRunner, RebaseAdoptedRejectsBadPositionsWithoutSideEffects) {
  const auto topo = sweep_topology();
  const CompiledTopology compiled(topo.graph);
  std::vector<AsId> sources;
  for (AsId as = 0; as < topo.graph.num_ases(); as += 7) {
    sources.push_back(as);
  }
  const auto enumerate = [](const Overlay& overlay, AsId src) {
    return enumerate_length3(overlay, src);
  };
  SweepConfig config;
  config.dirty_radius = kLength3DirtyRadius;
  SweepRunner<SourcePathSet> runner(compiled, sources, config);
  runner.prime(enumerate);
  util::Rng rng(11);
  const auto deltas = random_deltas(topo.graph, 2, rng);
  runner.rebase(deltas[0], enumerate);
  const std::vector<SourcePathSet> baseline = runner.baseline();
  const Delta state = runner.state();
  // Non-empty sets in the slots a half-applied call would overwrite.
  ASSERT_NE(baseline[0], SourcePathSet{});
  ASSERT_NE(baseline[1], SourcePathSet{});

  const std::size_t duplicate[] = {1, 1};
  const std::size_t out_of_range[] = {0, runner.sources().size()};
  for (const std::span<const std::size_t> positions :
       {std::span<const std::size_t>(duplicate),
        std::span<const std::size_t>(out_of_range)}) {
    std::vector<SourcePathSet> results(2);
    EXPECT_THROW(
        runner.rebase_adopted(deltas[1], positions, std::move(results)),
        util::PreconditionError);
    EXPECT_TRUE(runner.baseline() == baseline);
    EXPECT_EQ(runner.state().add, state.add);
    EXPECT_EQ(runner.state().remove, state.remove);
  }
}

/// A random contribution whose doubles are not exactly representable, so
/// a sum of them rounds and any change of addition order shows in the
/// bits.
SourceContribution random_contribution(util::Rng& rng) {
  SourceContribution c;
  c.grc_paths = rng.uniform_index(1000);
  c.ma_paths = rng.uniform_index(1000);
  c.grc_pairs = rng.uniform_index(500);
  c.ma_extra_pairs = rng.uniform_index(500);
  c.km_sum = rng.uniform(0.0, 1e6) / 3.0;
  c.km_pairs = rng.uniform_index(500);
  c.transit_fees = 0.1 * static_cast<double>(rng.uniform_index(100000)) +
                   rng.uniform(0.0, 1e-3);
  return c;
}

DiversityCounts random_counts(util::Rng& rng) {
  return {rng.uniform_index(1000), rng.uniform_index(1000),
          rng.uniform_index(500), rng.uniform_index(500)};
}

template <typename Slice>
[[nodiscard]] bool same_slice_bytes(const Slice& a, const Slice& b) {
  return std::memcmp(&a, &b, sizeof(Slice)) == 0;
}

/// The oracle of every splice: an in-order += refold from Slice{}.
template <typename Slice>
[[nodiscard]] Slice refold(const std::vector<Slice>& slices) {
  Slice total{};
  for (const Slice& slice : slices) {
    total += slice;
  }
  return total;
}

/// spliced() and adopt() over random slices and random ascending position
/// lists, among them none, the first slot, the last slot and all slots.
template <typename Slice, typename Make>
void check_splices(Make make, std::uint64_t seed) {
  util::Rng rng(seed);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 500u}) {
    std::vector<Slice> slices;
    for (std::size_t i = 0; i < n; ++i) {
      slices.push_back(make(rng));
    }
    const SliceSum<Slice> sum(slices);
    ASSERT_TRUE(same_slice_bytes(sum.total(), refold(slices)));
    std::vector<std::vector<std::size_t>> lists{{}, {0}, {n - 1}, {}};
    for (std::size_t i = 0; i < n; ++i) {
      lists[3].push_back(i);
    }
    for (int k = 0; k < 20; ++k) {
      std::vector<std::size_t>& some = lists.emplace_back();
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.uniform_index(4) == 0) {
          some.push_back(i);
        }
      }
    }
    for (const std::vector<std::size_t>& positions : lists) {
      std::vector<Slice> fresh;
      std::vector<Slice> expected = slices;
      for (const std::size_t position : positions) {
        fresh.push_back(make(rng));
        expected[position] = fresh.back();
      }
      EXPECT_TRUE(same_slice_bytes(sum.spliced(positions, fresh),
                                   refold(expected)))
          << n << " slots, " << positions.size() << " spliced";
      SliceSum<Slice> adopted = sum;
      adopted.adopt(positions, fresh);
      EXPECT_EQ(adopted.slices(), expected);
      EXPECT_TRUE(same_slice_bytes(adopted.total(),
                                   SliceSum<Slice>(expected).total()))
          << n << " slots, " << positions.size() << " adopted";
    }
  }
}

TEST(SliceSum, SplicesAddInSlotOrderToTheBit) {
  check_splices<SourceContribution>(random_contribution, 17);
}

TEST(SliceSum, SplicesDiversityCounts) {
  check_splices<DiversityCounts>(random_counts, 18);
}

/// Unsorted, duplicate and out-of-range position lists (and a list that
/// does not match its slices) are rejected before any slot moves.
TEST(SliceSum, RejectsBadPositionListsWithoutSideEffects) {
  util::Rng rng(19);
  std::vector<SourceContribution> slices;
  for (int i = 0; i < 6; ++i) {
    slices.push_back(random_contribution(rng));
  }
  SliceSum<SourceContribution> sum(slices);
  const SourceContribution total = sum.total();
  const std::vector<SourceContribution> fresh{random_contribution(rng),
                                              random_contribution(rng)};
  const std::size_t unsorted[] = {3, 1};
  const std::size_t duplicate[] = {2, 2};
  const std::size_t out_of_range[] = {0, 6};
  const std::size_t one[] = {4};
  for (const std::span<const std::size_t> positions :
       {std::span<const std::size_t>(unsorted),
        std::span<const std::size_t>(duplicate),
        std::span<const std::size_t>(out_of_range),
        std::span<const std::size_t>(one)}) {
    EXPECT_THROW((void)sum.spliced(positions, fresh),
                 util::PreconditionError);
    EXPECT_THROW(sum.adopt(positions, fresh), util::PreconditionError);
    EXPECT_EQ(sum.slices(), slices);
    EXPECT_TRUE(same_slice_bytes(sum.total(), total));
  }
}

/// A set's hop runs break wherever the mid changes and at the GRC/MA
/// boundary, and every path of a set shares its source.
TEST(SourcePathSet, RunsBreakAtMidChangesAndTheGrcMaBoundary) {
  SourcePathSet set;
  EXPECT_EQ(set.source(), topology::kInvalidAs);
  set.add_grc({5, 1, 2});
  set.add_grc({5, 1, 3});
  set.add_grc({5, 4, 6});
  set.add_grc({5, 1, 7});
  set.add_ma({5, 1, 8});
  set.add_ma({5, 1, 9});
  EXPECT_EQ(set.source(), 5u);
  EXPECT_EQ(set.grc().size(), 4u);
  EXPECT_EQ(set.ma().size(), 2u);
  const auto runs_of = [](const SourcePathSet::Paths& paths) {
    std::vector<std::pair<AsId, std::vector<AsId>>> runs;
    paths.for_each_run([&](AsId mid, std::span<const AsId> dsts) {
      runs.emplace_back(mid, std::vector<AsId>(dsts.begin(), dsts.end()));
    });
    return runs;
  };
  using Runs = std::vector<std::pair<AsId, std::vector<AsId>>>;
  EXPECT_EQ(runs_of(set.grc()), (Runs{{1, {2, 3}}, {4, {6}}, {1, {7}}}));
  EXPECT_EQ(runs_of(set.ma()), (Runs{{1, {8, 9}}}));
  EXPECT_THROW(set.add_ma({6, 1, 2}), util::PreconditionError);
}

TEST(InvalidationBall, GrowsWithRadiusAndCoversEndpoints) {
  // Path graph 0-1-2-3-4 (all peering).
  Graph g;
  for (int i = 0; i < 5; ++i) {
    g.add_as();
  }
  for (AsId i = 0; i + 1 < 5; ++i) {
    g.add_peering(i, i + 1);
  }
  const CompiledTopology compiled(g);
  Overlay overlay(compiled);
  Delta delta;
  delta.remove.emplace_back(1, 2);
  overlay.apply(delta);

  EXPECT_EQ(invalidation_ball(overlay, 0), (std::vector<AsId>{1, 2}));
  // Radius 1 over the overlaid adjacency: 0-1 and 2-3 survive, 1-2 does
  // not (both its endpoints are already seeds).
  EXPECT_EQ(invalidation_ball(overlay, 1), (std::vector<AsId>{0, 1, 2, 3}));
  EXPECT_EQ(invalidation_ball(overlay, 2),
            (std::vector<AsId>{0, 1, 2, 3, 4}));
}

TEST(Metrics, AggregatesTinyTopologyDeterministically) {
  const Graph g = star_graph();
  const CompiledTopology compiled(g);
  const econ::Economy economy = econ::make_default_economy(g);
  const MetricsAggregator aggregator(compiled, /*world=*/nullptr, &economy);

  const std::vector<AsId> sources{1, 2};
  Overlay overlay(compiled);
  std::vector<SourcePathSet> results;
  for (const AsId src : sources) {
    results.push_back(enumerate_length3(overlay, src));
  }
  const ScenarioMetrics base = aggregator.aggregate(overlay, sources, results);

  // Peering 2-3 unlocks new paths; fees can only drop or hold (the new
  // link is settlement-free) and pairs can only grow.
  Delta delta;
  delta.add.push_back({2, 3, LinkType::kPeering});
  Overlay changed(compiled);
  changed.apply(delta);
  std::vector<SourcePathSet> changed_results;
  for (const AsId src : sources) {
    changed_results.push_back(enumerate_length3(changed, src));
  }
  const ScenarioMetrics after =
      aggregator.aggregate(changed, sources, changed_results);
  EXPECT_GE(after.grc_paths + after.ma_paths, base.grc_paths + base.ma_paths);
  EXPECT_GE(after.grc_pairs + after.ma_extra_pairs,
            base.grc_pairs + base.ma_extra_pairs);

  const MetricsDelta delta_metrics = subtract(after, base);
  // The MA 2-3-0 path makes AS0 newly reachable from AS2 at length 3; its
  // provider hop 3-0 bills one unit of mid-tier transit (AS0 has no
  // assigned tier and defaults to 1.4/unit).
  EXPECT_DOUBLE_EQ(delta_metrics.pairs, 1.0);
  EXPECT_NEAR(delta_metrics.transit_fees, 1.4, 1e-9);
  // At a pair reward outweighing the transit bill the deployment scores
  // positive; at the default weights it does not.
  EXPECT_LT(operator_utility(delta_metrics), 0.0);
  EXPECT_GT(operator_utility(delta_metrics, {.per_new_pair = 2.0}), 0.0);
}

TEST(Metrics, AddedLinksUseEstimatedFacilitiesNotCentroids) {
  // Regression (ROADMAP known gap): paths crossing an overlay-added link
  // used to fall back to endpoint-centroid great-circle legs. They must
  // instead minimize over facilities estimated from the endpoint PoP
  // sets - the same rule the generator assigns real links with - so a
  // what-if deployment prices like its recompiled version.
  const auto topo = topology::generate_internet([] {
    topology::GeneratorParams params;
    params.num_ases = 80;
    params.tier1_count = 4;
    params.seed = 5;
    return params;
  }());
  const Graph& g = topo.graph;
  const CompiledTopology compiled(g);
  const econ::Economy economy = econ::make_default_economy(g);
  const MetricsAggregator aggregator(compiled, &topo.world, &economy);

  const auto deltas = candidate_peering_deltas(compiled, 1, 11);
  ASSERT_EQ(deltas.size(), 1u);
  const LinkChange& added = deltas[0].add.front();
  Overlay overlay(compiled);
  overlay.apply(deltas[0]);

  // A length-3 path whose first hop is the added link and whose second is
  // a base link: added.a - added.b - d.
  AsId d = topology::kInvalidAs;
  for (const auto& entry : compiled.entries(added.b)) {
    if (entry.neighbor != added.a) {
      d = entry.neighbor;
      break;
    }
  }
  ASSERT_NE(d, topology::kInvalidAs);

  topology::Link hypothetical;
  hypothetical.a = added.a;
  hypothetical.b = added.b;
  hypothetical.type = added.type;
  const std::vector<std::size_t> estimated =
      topology::estimate_link_facilities(g, topo.world, hypothetical);
  ASSERT_FALSE(estimated.empty());
  const auto base_link = g.link_between(added.b, d);
  ASSERT_TRUE(base_link.has_value());

  const diversity::GeodistanceModel geodesy(g, topo.world);
  const double expected = geodesy.path_geodistance_km(
      added.a, added.b, d, estimated, g.link(*base_link).facilities);
  const double actual =
      aggregator.path_geodistance_km(overlay, added.a, added.b, d);
  EXPECT_DOUBLE_EQ(actual, expected);

  // The pre-fix behavior (centroid legs) must no longer be what we get.
  const double centroid_legs =
      geo::great_circle_km(g.info(added.a).centroid,
                           g.info(added.b).centroid) +
      geo::great_circle_km(g.info(added.b).centroid, g.info(d).centroid);
  EXPECT_NE(actual, centroid_legs);
}

/// The contribution kernel the slow way, kept only here as the reference
/// the table-driven MetricsAggregator::contribution must reproduce bit
/// for bit: per path, the trig formula of GeodistanceModel over the
/// stored facilities of base links or the estimated ones of added links
/// (endpoint-centroid legs when an estimate comes back empty),
/// destinations keyed in a std::map, and path_fee over each
/// destination's best path.
class ReferenceFold {
 public:
  ReferenceFold(const CompiledTopology& base, const geo::World* world,
                const MetricsAggregator& aggregator)
      : graph_(&base.graph()), world_(world), aggregator_(&aggregator) {
    if (world != nullptr) {
      model_.emplace(base.graph(), *world);
    }
    std::size_t max_stored = 0;
    for (const topology::Link& link : base.graph().links()) {
      max_stored = std::max(max_stored, link.facilities.size());
    }
    if (max_stored > 0) {
      max_facilities_ = max_stored;
    }
  }

  [[nodiscard]] SourceContribution contribution(
      const Overlay& overlay, const SourcePathSet& result) {
    struct Best {
      diversity::Length3Path path;
      double km = std::numeric_limits<double>::infinity();
      bool has_km = false;
      bool grc_reachable = false;
    };
    std::map<AsId, Best> best;
    const auto consider = [&](const diversity::Length3Path& p, bool grc) {
      auto [it, inserted] = best.try_emplace(p.dst);
      Best& slot = it->second;
      slot.grc_reachable = slot.grc_reachable || grc;
      const std::optional<double> km = km_of(overlay, p);
      if (inserted) {
        slot.path = p;
        if (km.has_value()) {
          slot.km = *km;
          slot.has_km = true;
        }
        return;
      }
      if (km.has_value() && *km < slot.km) {
        slot.path = p;
        slot.km = *km;
        slot.has_km = true;
      }
    };
    for (const diversity::Length3Path& p : result.grc()) {
      consider(p, true);
    }
    for (const diversity::Length3Path& p : result.ma()) {
      consider(p, false);
    }
    SourceContribution out;
    out.grc_paths = result.grc().size();
    out.ma_paths = result.ma().size();
    for (const auto& [dst, slot] : best) {
      if (slot.grc_reachable) {
        ++out.grc_pairs;
      } else {
        ++out.ma_extra_pairs;
      }
      if (slot.has_km) {
        out.km_sum += slot.km;
        ++out.km_pairs;
      }
      const AsId hops[3] = {slot.path.src, slot.path.mid, slot.path.dst};
      out.transit_fees += aggregator_->path_fee(overlay, hops, 1.0);
      for (std::size_t h = 0; h < 2; ++h) {
        const std::span<const AsId> hop(hops + h, 2);
        if (*overlay.link_between(hop[0], hop[1]) >=
                overlay.first_added_link_id() &&
            aggregator_->path_fee(overlay, hop, 1.0) != 0.0) {
          ++priced_added_hops;
        }
      }
    }
    return out;
  }

  /// Paths priced over an overlay-added hop, and how many of those fell
  /// back to centroid legs - so a test can prove both branches ran.
  std::size_t added_hops = 0;
  std::size_t centroid_fallbacks = 0;
  /// Best-path hops over an overlay-added link with a non-zero unit fee
  /// (a base provider-customer pair re-added in the same direction).
  std::size_t priced_added_hops = 0;

 private:
  std::optional<double> km_of(const Overlay& overlay,
                              const diversity::Length3Path& p) {
    if (!model_.has_value() || !graph_->info(p.src).has_geo ||
        !graph_->info(p.mid).has_geo || !graph_->info(p.dst).has_geo) {
      return std::nullopt;
    }
    const std::uint32_t l1 = *overlay.link_between(p.src, p.mid);
    const std::uint32_t l2 = *overlay.link_between(p.mid, p.dst);
    const auto facilities = [&](std::uint32_t link) {
      if (link < overlay.first_added_link_id()) {
        return graph_->link(link).facilities;
      }
      const LinkChange& change = overlay.added_link(link);
      topology::Link estimated;
      estimated.a = change.a;
      estimated.b = change.b;
      estimated.type = change.type;
      return topology::estimate_link_facilities(*graph_, *world_, estimated,
                                                max_facilities_);
    };
    const std::vector<std::size_t> sm = facilities(l1);
    const std::vector<std::size_t> md = facilities(l2);
    if (l1 >= overlay.first_added_link_id() ||
        l2 >= overlay.first_added_link_id()) {
      ++added_hops;
    }
    if (sm.empty() || md.empty()) {
      ++centroid_fallbacks;
      return geo::great_circle_km(graph_->info(p.src).centroid,
                                  graph_->info(p.mid).centroid) +
             geo::great_circle_km(graph_->info(p.mid).centroid,
                                  graph_->info(p.dst).centroid);
    }
    return model_->path_geodistance_km(p.src, p.mid, p.dst, sm, md);
  }

  const Graph* graph_;
  const geo::World* world_;
  const MetricsAggregator* aggregator_;
  std::optional<diversity::GeodistanceModel> model_;
  std::size_t max_facilities_ = 3;
};

[[nodiscard]] bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bit_identical(const SourceContribution& actual,
                          const SourceContribution& expected,
                          const std::string& where) {
  EXPECT_EQ(actual.grc_paths, expected.grc_paths) << where;
  EXPECT_EQ(actual.ma_paths, expected.ma_paths) << where;
  EXPECT_EQ(actual.grc_pairs, expected.grc_pairs) << where;
  EXPECT_EQ(actual.ma_extra_pairs, expected.ma_extra_pairs) << where;
  EXPECT_EQ(actual.km_pairs, expected.km_pairs) << where;
  EXPECT_TRUE(same_bytes(actual.km_sum, expected.km_sum))
      << where << ": km_sum " << actual.km_sum << " vs " << expected.km_sum;
  EXPECT_TRUE(same_bytes(actual.transit_fees, expected.transit_fees))
      << where << ": fees " << actual.transit_fees << " vs "
      << expected.transit_fees;
}

/// A randomized what-if over `g`: added peerings (one from each of
/// `stripped`, ASes without PoPs), removed links, one provider->customer
/// rewire of a base peering, and two base provider->customer links
/// removed and re-added, one in the same direction (the economy still
/// prices it) and one flipped (settlement-free).
Delta random_rewire_delta(const Graph& g, const std::vector<AsId>& stripped,
                          util::Rng& rng) {
  Delta delta;
  std::vector<std::pair<AsId, AsId>> used;
  const auto fresh = [&](AsId a, AsId b) {
    return std::none_of(used.begin(), used.end(), [&](const auto& pair) {
      return (pair.first == a && pair.second == b) ||
             (pair.first == b && pair.second == a);
    });
  };
  const auto add_peering_from = [&](AsId a) {
    for (;;) {
      const auto b = static_cast<AsId>(rng.uniform_index(g.num_ases()));
      if (a != b && !g.link_between(a, b).has_value() && fresh(a, b)) {
        delta.add.push_back({a, b, LinkType::kPeering});
        used.emplace_back(a, b);
        return;
      }
    }
  };
  for (const AsId a : stripped) {
    add_peering_from(a);
  }
  for (int i = 0; i < 3; ++i) {
    add_peering_from(static_cast<AsId>(rng.uniform_index(g.num_ases())));
  }
  bool rewired = false;
  while (!rewired) {
    const topology::Link& link = g.link(rng.uniform_index(g.num_links()));
    if (link.type == LinkType::kPeering && fresh(link.a, link.b)) {
      delta.remove.emplace_back(link.a, link.b);
      delta.add.push_back({link.a, link.b, LinkType::kProviderCustomer});
      used.emplace_back(link.a, link.b);
      rewired = true;
    }
  }
  for (const bool flipped : {false, true}) {
    for (;;) {
      const topology::Link& link = g.link(rng.uniform_index(g.num_links()));
      if (link.type == LinkType::kProviderCustomer &&
          fresh(link.a, link.b)) {
        delta.remove.emplace_back(link.a, link.b);
        delta.add.push_back(flipped ? LinkChange{link.b, link.a,
                                                 LinkType::kProviderCustomer}
                                    : LinkChange{link.a, link.b,
                                                 LinkType::kProviderCustomer});
        used.emplace_back(link.a, link.b);
        break;
      }
    }
  }
  for (int removed = 0; removed < 2;) {
    const topology::Link& link = g.link(rng.uniform_index(g.num_links()));
    if (fresh(link.a, link.b)) {
      delta.remove.emplace_back(link.a, link.b);
      used.emplace_back(link.a, link.b);
      ++removed;
    }
  }
  return delta;
}

/// The kernel's bit-identity contract: over randomized overlays (added
/// peerings, removals, provider->customer rewires), with and without
/// geodata and with and without an economy, every source's contribution
/// equals the trig reference byte for byte - through one Scratch reused
/// across sources and overlays and through a fresh one per call. Without
/// an economy every hop is settlement-free.
TEST(Metrics, ContributionIsBitIdenticalToTheTrigReference) {
  topology::GeneratedTopology topo = topology::generate_internet([] {
    topology::GeneratorParams params;
    params.num_ases = 200;
    params.tier1_count = 4;
    params.seed = 21;
    return params;
  }());
  // ASes without PoPs: overlay-added links at them estimate no
  // facilities, which is the centroid-leg fallback's case.
  const std::vector<AsId> stripped{40, 170};
  for (const AsId as : stripped) {
    topo.graph.info(as).pops.clear();
  }
  const Graph& g = topo.graph;
  const CompiledTopology compiled(g);
  const econ::Economy economy = econ::make_default_economy(g);

  std::vector<Delta> deltas{Delta{}};
  util::Rng rng(2026);
  for (int i = 0; i < 4; ++i) {
    deltas.push_back(random_rewire_delta(g, stripped, rng));
  }

  const std::vector<const geo::World*> worlds{&topo.world, nullptr};
  const std::vector<const econ::Economy*> economies{&economy, nullptr};
  for (const geo::World* world : worlds) {
    for (const econ::Economy* prices : economies) {
      const MetricsAggregator aggregator(compiled, world, prices);
      ReferenceFold reference(compiled, world, aggregator);
      MetricsAggregator::Scratch shared;
      for (std::size_t d = 0; d < deltas.size(); ++d) {
        Overlay overlay(compiled);
        overlay.apply(deltas[d]);
        std::vector<AsId> sources = overlay.touched();
        for (AsId as = 0; as < g.num_ases(); as += 6) {
          sources.push_back(as);
        }
        for (const AsId src : sources) {
          const SourcePathSet sets = enumerate_length3(overlay, src);
          const SourceContribution expected =
              reference.contribution(overlay, sets);
          const std::string where =
              std::string(world ? "geo" : "no-geo") +
              (prices ? "" : " no-economy") + " delta " + std::to_string(d) +
              " source " + std::to_string(src);
          const SourceContribution actual =
              aggregator.contribution(overlay, sets, shared);
          expect_bit_identical(actual, expected, where);
          expect_bit_identical(aggregator.contribution(overlay, sets),
                               expected, where + " (fresh scratch)");
          if (prices == nullptr) {
            EXPECT_TRUE(same_bytes(actual.transit_fees, 0.0)) << where;
          }
        }
      }
      if (world != nullptr) {
        EXPECT_GT(reference.added_hops, 0u);
        EXPECT_GT(reference.centroid_fallbacks, 0u);
      } else {
        EXPECT_EQ(reference.added_hops, 0u);
      }
      if (prices != nullptr) {
        EXPECT_GT(reference.priced_added_hops, 0u);
      } else {
        EXPECT_EQ(reference.priced_added_hops, 0u);
      }
    }
  }
}

/// A path whose m-d hop is not a link is a caller error, raised by the
/// kernel itself whether or not the path is priced by geodistance.
TEST(Metrics, ContributionRejectsUnlinkedHops) {
  const auto topo = topology::generate_internet([] {
    topology::GeneratorParams params;
    params.num_ases = 80;
    params.tier1_count = 4;
    params.seed = 5;
    return params;
  }());
  const Graph& g = topo.graph;
  const CompiledTopology compiled(g);
  const econ::Economy economy = econ::make_default_economy(g);
  const Overlay overlay(compiled);

  // s - m is a link, m - d is not.
  const AsId s = 0;
  const AsId m = compiled.entries(s).front().neighbor;
  AsId d = topology::kInvalidAs;
  for (AsId as = 0; as < g.num_ases(); ++as) {
    if (as != s && as != m && !g.link_between(m, as).has_value()) {
      d = as;
      break;
    }
  }
  ASSERT_NE(d, topology::kInvalidAs);
  ASSERT_TRUE(g.info(s).has_geo && g.info(m).has_geo && g.info(d).has_geo);
  SourcePathSet sets;
  sets.add_grc({s, m, d});

  const std::vector<const geo::World*> worlds{&topo.world, nullptr};
  for (const geo::World* world : worlds) {
    const MetricsAggregator aggregator(compiled, world, &economy);
    EXPECT_THROW((void)aggregator.contribution(overlay, sets),
                 util::PreconditionError)
        << (world ? "geo" : "no-geo");
  }
}

}  // namespace
}  // namespace panagree::scenario
