#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "panagree/bgp/policy.hpp"
#include "panagree/diversity/bandwidth.hpp"
#include "panagree/diversity/geodistance.hpp"
#include "panagree/diversity/length3.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/topology/capacity.hpp"
#include "panagree/topology/examples.hpp"
#include "panagree/topology/generator.hpp"

namespace panagree::diversity {
namespace {

using topology::make_fig1;

// --------------------------------------------------------- GRC enumeration

TEST(Grc, Fig1PathsFromHAreHandCountable) {
  const auto t = make_fig1();
  const Length3Analyzer analyzer(t.graph);
  const auto paths = analyzer.grc_paths(t.H);
  // H's only neighbor is its provider D; D's other neighbors: A, C, E.
  ASSERT_EQ(paths.size(), 3u);
  std::set<topology::AsId> dsts;
  for (const auto& p : paths) {
    EXPECT_EQ(p.src, t.H);
    EXPECT_EQ(p.mid, t.D);
    dsts.insert(p.dst);
  }
  EXPECT_EQ(dsts, (std::set<topology::AsId>{t.A, t.C, t.E}));
}

TEST(Grc, Fig1PathsFromDIncludeOnlyForwardableOnes) {
  const auto t = make_fig1();
  const Length3Analyzer analyzer(t.graph);
  const auto paths = analyzer.grc_paths(t.D);
  // Via provider A (everything A touches): A's neighbors B, C, D minus D
  //   -> D-A-B, D-A-C.
  // Via peer C: C's customers: none.
  // Via peer E: E's customers: I -> D-E-I.
  // Via customer H: H has no customers.
  std::set<std::pair<topology::AsId, topology::AsId>> got;
  for (const auto& p : paths) {
    got.insert({p.mid, p.dst});
  }
  const std::set<std::pair<topology::AsId, topology::AsId>> expected{
      {t.A, t.B}, {t.A, t.C}, {t.E, t.I}};
  EXPECT_EQ(got, expected);
}

TEST(Grc, MatchesValleyFreeForwardingRule) {
  topology::GeneratorParams params;
  params.num_ases = 300;
  params.tier1_count = 4;
  params.seed = 3;
  const auto topo = topology::generate_internet(params);
  const Length3Analyzer analyzer(topo.graph);
  for (topology::AsId src = 0; src < 40; ++src) {
    for (const auto& p : analyzer.grc_paths(src)) {
      EXPECT_TRUE(bgp::is_valley_free(topo.graph, {p.src, p.mid, p.dst}));
      EXPECT_TRUE(analyzer.is_grc(p.src, p.mid, p.dst));
    }
  }
}

// ---------------------------------------------------------- MA enumeration

TEST(Ma, Fig1DirectPathsOfD) {
  const auto t = make_fig1();
  const Length3Analyzer analyzer(t.graph);
  const auto paths = analyzer.ma_direct_paths(t.D);
  // Peers of D: C and E.
  //  Via C: providers {A}, peers {D excluded as beneficiary-self? no: D is
  //  the beneficiary} -> C grants A (D's own provider but not D's customer:
  //  still granted) -> path D-C-A.
  //  Via E: providers {B}, peers {F} -> D-E-B, D-E-F.
  std::set<std::pair<topology::AsId, topology::AsId>> got;
  for (const auto& p : paths) {
    got.insert({p.mid, p.dst});
  }
  const std::set<std::pair<topology::AsId, topology::AsId>> expected{
      {t.C, t.A}, {t.E, t.B}, {t.E, t.F}};
  EXPECT_EQ(got, expected);
}

TEST(Ma, NoMaPathIsGrcValid) {
  topology::GeneratorParams params;
  params.num_ases = 400;
  params.tier1_count = 4;
  params.seed = 9;
  const auto topo = topology::generate_internet(params);
  const Length3Analyzer analyzer(topo.graph);
  for (topology::AsId src = 0; src < 60; ++src) {
    for (const auto& p : analyzer.ma_paths(src)) {
      EXPECT_FALSE(analyzer.is_grc(p.src, p.mid, p.dst))
          << p.src << "-" << p.mid << "-" << p.dst;
    }
  }
}

TEST(Ma, IndirectPathsHaveSrcAsGrantedDestination) {
  const auto t = make_fig1();
  const Length3Analyzer analyzer(t.graph);
  // B is a provider of E; the MA between D and E grants D access to B,
  // which indirectly gives B the path B-E-D... from B's perspective the
  // MA-created paths with B as endpoint include B-E-D (mid E, dst D).
  const auto paths = analyzer.ma_paths(t.B);
  const bool found =
      std::any_of(paths.begin(), paths.end(), [&](const Length3Path& p) {
        return p.mid == t.E && p.dst == t.D;
      });
  EXPECT_TRUE(found);
}

TEST(Ma, DirectAndAllAreConsistent) {
  topology::GeneratorParams params;
  params.num_ases = 400;
  params.tier1_count = 4;
  params.seed = 10;
  const auto topo = topology::generate_internet(params);
  const Length3Analyzer analyzer(topo.graph);
  for (topology::AsId src = 0; src < 50; ++src) {
    const auto direct = analyzer.ma_direct_paths(src);
    const auto all = analyzer.ma_paths(src);
    EXPECT_GE(all.size(), direct.size());
    // All paths are unique by (mid, dst).
    std::set<std::pair<topology::AsId, topology::AsId>> unique;
    for (const auto& p : all) {
      EXPECT_TRUE(unique.insert({p.mid, p.dst}).second);
    }
  }
}

TEST(Ma, CountsMatchEnumerations) {
  topology::GeneratorParams params;
  params.num_ases = 400;
  params.tier1_count = 4;
  params.seed = 11;
  const auto topo = topology::generate_internet(params);
  const Length3Analyzer analyzer(topo.graph);
  for (topology::AsId src = 0; src < 40; ++src) {
    const SourceCounts c = analyzer.count(src, {1, 5, 50});
    EXPECT_EQ(c.grc_paths, analyzer.grc_paths(src).size());
    EXPECT_EQ(c.ma_direct_paths, analyzer.ma_direct_paths(src).size());
    EXPECT_EQ(c.ma_all_paths, analyzer.ma_paths(src).size());
    ASSERT_EQ(c.ma_top_paths.size(), 3u);
    // Top-n path gains are monotone in n and bounded by the full direct set.
    EXPECT_LE(c.ma_top_paths[0], c.ma_top_paths[1]);
    EXPECT_LE(c.ma_top_paths[1], c.ma_top_paths[2]);
    EXPECT_LE(c.ma_top_paths[2], c.ma_direct_paths);
    EXPECT_LE(c.ma_top_dests[0], c.ma_top_dests[1]);
    EXPECT_LE(c.ma_top_dests[2], c.ma_direct_dests);
    EXPECT_LE(c.ma_direct_paths, c.ma_all_paths);
  }
}

TEST(Ma, DestinationCountsAreNewOnly) {
  const auto t = make_fig1();
  const Length3Analyzer analyzer(t.graph);
  const SourceCounts c = analyzer.count(t.H, {1});
  // GRC dests of H: {A, C, E}. H has no peers, so no direct MA paths; but
  // indirect: H's provider D peers C and E... wait, mid must be a customer
  // or peer of H - H has neither, so no MA paths at all.
  EXPECT_EQ(c.grc_dests, 3u);
  EXPECT_EQ(c.ma_all_paths, 0u);
  EXPECT_EQ(c.ma_all_dests, 0u);
}

TEST(Ma, TopOneAlreadyGainsForPeeredAses) {
  const auto t = make_fig1();
  const Length3Analyzer analyzer(t.graph);
  const SourceCounts c = analyzer.count(t.D, {1});
  // D's best MA (with E) directly gains 2 paths (B and F).
  ASSERT_EQ(c.ma_top_paths.size(), 1u);
  EXPECT_EQ(c.ma_top_paths[0], 2u);
  EXPECT_EQ(c.ma_direct_paths, 3u);
}

// ------------------------------------------------------------- geodistance

TEST(Geodistance, HandComputedTriangle) {
  topology::Graph g;
  util::Rng rng(1);
  const auto world = geo::World::make_default(rng, 4);
  const auto a = g.add_as("a");
  const auto b = g.add_as("b");
  const auto c = g.add_as("c");
  // Give each AS one PoP city and each link one facility.
  for (const auto as : {a, b, c}) {
    auto& info = g.info(as);
    info.pops = {static_cast<std::size_t>(as)};
    info.centroid = world.city(as).location;
    info.has_geo = true;
  }
  const auto l1 = g.add_peering(a, b);
  const auto l2 = g.add_peering(b, c);
  g.link(l1).facilities = {0};  // at a's city
  g.link(l2).facilities = {2};  // at c's city
  const GeodistanceModel model(g, world);
  const double expected =
      geo::great_circle_km(world.city(0).location, world.city(0).location) +
      geo::great_circle_km(world.city(0).location, world.city(2).location) +
      geo::great_circle_km(world.city(2).location, world.city(2).location);
  EXPECT_NEAR(model.path_geodistance_km(a, b, c), expected, 1e-9);
}

TEST(Geodistance, MinimizesOverFacilities) {
  topology::Graph g;
  util::Rng rng(2);
  const auto world = geo::World::make_default(rng, 10);
  const auto a = g.add_as("a");
  const auto b = g.add_as("b");
  const auto c = g.add_as("c");
  for (const auto as : {a, b, c}) {
    auto& info = g.info(as);
    info.centroid = world.city(0).location;
    info.has_geo = true;
  }
  const auto l1 = g.add_peering(a, b);
  const auto l2 = g.add_peering(b, c);
  g.link(l1).facilities = {1, 2, 3};
  g.link(l2).facilities = {4, 5};
  const GeodistanceModel model(g, world);
  double best = 1e18;
  for (const std::size_t f1 : {1, 2, 3}) {
    for (const std::size_t f2 : {4, 5}) {
      const double d =
          geo::great_circle_km(world.city(0).location,
                               world.city(f1).location) +
          geo::great_circle_km(world.city(f1).location,
                               world.city(f2).location) +
          geo::great_circle_km(world.city(f2).location,
                               world.city(0).location);
      best = std::min(best, d);
    }
  }
  EXPECT_NEAR(model.path_geodistance_km(a, b, c), best, 1e-9);
}

/// The tables hold exactly the haversine doubles, however the build
/// shares great circles between legs: every leg equals great_circle_km
/// of its endpoint's centroid and its city, and every city-matrix entry
/// that of its two cities.
TEST(Geodistance, TablesHoldTheHaversineDoubles) {
  topology::GeneratorParams params;
  params.num_ases = 400;
  params.tier1_count = 4;
  params.seed = 23;
  const auto topo = topology::generate_internet(params);
  const topology::Graph& g = topo.graph;
  const geo::World& world = topo.world;
  const GeodistanceModel model(g, world);

  std::size_t legs = 0;
  std::size_t off_pop_legs = 0;
  for (topology::LinkId l = 0; l < g.num_links(); ++l) {
    const topology::Link& link = g.link(l);
    for (const AsId as : {link.a, link.b}) {
      const HopLegs hop = model.link_legs(l, as);
      ASSERT_EQ(hop.side, as == link.a ? 0u : 1u);
      ASSERT_EQ(hop.legs.size(), link.facilities.size());
      const std::vector<std::size_t>& pops = g.info(as).pops;
      for (std::size_t k = 0; k < hop.legs.size(); ++k) {
        const std::size_t city = link.facilities[k];
        ASSERT_EQ(hop.legs[k].city, city);
        EXPECT_EQ(hop.legs[k].km[hop.side],
                  geo::great_circle_km(g.info(as).centroid,
                                       world.city(city).location))
            << "link " << l << " AS " << as << " city " << city;
        ++legs;
        if (std::find(pops.begin(), pops.end(), city) == pops.end()) {
          ++off_pop_legs;
        }
      }
    }
  }
  EXPECT_GT(legs, 0u);
  // Legs into cities that are not a PoP of their AS (IXP cities, a
  // provider's haul facilities, nearest-pair peerings): a memo keyed on
  // PoP membership would miss these.
  EXPECT_GT(off_pop_legs, 0u);

  // A path of two zero-km legs reads one matrix entry.
  const std::size_t cities = world.cities().size();
  for (std::uint32_t a = 0; a < cities; ++a) {
    const FacilityLeg head{a, {0.0, 0.0}};
    for (std::uint32_t b = 0; b < cities; ++b) {
      const FacilityLeg tail{b, {0.0, 0.0}};
      EXPECT_EQ(model.path_geodistance_km(HopLegs{{&head, 1}, 0},
                                          HopLegs{{&tail, 1}, 0}),
                geo::great_circle_km(world.city(std::min(a, b)).location,
                                     world.city(std::max(a, b)).location))
          << "cities " << a << ", " << b;
    }
  }
}

TEST(Geodistance, ReportCountsAreInternallyConsistent) {
  topology::GeneratorParams params;
  params.num_ases = 500;
  params.tier1_count = 4;
  params.seed = 21;
  const auto topo = topology::generate_internet(params);
  const auto sources = sample_sources(topo.graph, 30, 5);
  const auto report = analyze_geodistance(topo.graph, topo.world, sources);
  EXPECT_FALSE(report.pairs.empty());
  for (const GeoPairResult& pair : report.pairs) {
    // below-min implies below-median implies below-max.
    EXPECT_LE(pair.ma_paths_below_grc_min, pair.ma_paths_below_grc_median);
    EXPECT_LE(pair.ma_paths_below_grc_median, pair.ma_paths_below_grc_max);
    EXPECT_GE(pair.relative_reduction, 0.0);
    // 1.0 is attainable when an MA path collapses to zero geodistance
    // (same-city endpoints and facility).
    EXPECT_LE(pair.relative_reduction, 1.0);
    if (pair.relative_reduction > 0.0) {
      EXPECT_GE(pair.ma_paths_below_grc_min, 1u);
    }
  }
}

// --------------------------------------------------------------- bandwidth

TEST(Bandwidth, Length3IsMinOfTwoLinks) {
  auto t = make_fig1();
  topology::assign_degree_gravity_capacities(t.graph);
  const auto l1 = *t.graph.link_between(t.H, t.D);
  const auto l2 = *t.graph.link_between(t.D, t.A);
  EXPECT_DOUBLE_EQ(
      length3_bandwidth(t.graph, t.H, t.D, t.A),
      std::min(t.graph.link(l1).capacity, t.graph.link(l2).capacity));
}

TEST(Bandwidth, ReportCountsAreInternallyConsistent) {
  topology::GeneratorParams params;
  params.num_ases = 500;
  params.tier1_count = 4;
  params.seed = 22;
  auto topo = topology::generate_internet(params);
  topology::assign_degree_gravity_capacities(topo.graph);
  const auto sources = sample_sources(topo.graph, 30, 6);
  const auto report = analyze_bandwidth(topo.graph, sources);
  EXPECT_FALSE(report.pairs.empty());
  for (const BandwidthPairResult& pair : report.pairs) {
    EXPECT_LE(pair.ma_paths_above_grc_max, pair.ma_paths_above_grc_median);
    EXPECT_LE(pair.ma_paths_above_grc_median, pair.ma_paths_above_grc_min);
    EXPECT_GE(pair.relative_increase, 0.0);
    if (pair.relative_increase > 0.0) {
      EXPECT_GE(pair.ma_paths_above_grc_max, 1u);
    }
  }
}

// ------------------------------------------------------------------ report

TEST(Report, SamplesRequestedSourceCount) {
  topology::GeneratorParams params;
  params.num_ases = 300;
  params.tier1_count = 4;
  params.seed = 30;
  const auto topo = topology::generate_internet(params);
  DiversityParams dp;
  dp.sample_sources = 40;
  dp.seed = 7;
  const auto report = analyze_path_diversity(topo.graph, dp);
  EXPECT_EQ(report.sources.size(), 40u);
  EXPECT_EQ(report.path_rows.size(), 40u);
  EXPECT_EQ(report.dest_rows.size(), 40u);
}

TEST(Report, ScenarioOrderingHoldsPerRow) {
  topology::GeneratorParams params;
  params.num_ases = 600;
  params.tier1_count = 5;
  params.seed = 31;
  const auto topo = topology::generate_internet(params);
  DiversityParams dp;
  dp.sample_sources = 80;
  const auto report = analyze_path_diversity(topo.graph, dp);
  for (const auto& rows : {report.path_rows, report.dest_rows}) {
    for (const ScenarioRow& row : rows) {
      ASSERT_EQ(row.ma_top.size(), 3u);
      EXPECT_LE(row.grc, row.ma_top[0]);
      EXPECT_LE(row.ma_top[0], row.ma_top[1]);
      EXPECT_LE(row.ma_top[1], row.ma_top[2]);
      EXPECT_LE(row.ma_top[2], row.ma_star + 1e-9);
      EXPECT_LE(row.ma_star, row.ma_all + 1e-9);
    }
  }
}

TEST(Report, MaSubstantiallyIncreasesDiversity) {
  // The qualitative Fig. 3 claim: full MA conclusion multiplies the number
  // of available length-3 paths for the average AS.
  topology::GeneratorParams params;
  params.num_ases = 1500;
  params.tier1_count = 8;
  params.seed = 32;
  const auto topo = topology::generate_internet(params);
  DiversityParams dp;
  dp.sample_sources = 150;
  const auto report = analyze_path_diversity(topo.graph, dp);
  double grc_total = 0.0;
  double ma_total = 0.0;
  for (const ScenarioRow& row : report.path_rows) {
    grc_total += row.grc;
    ma_total += row.ma_all;
  }
  // At full Internet scale the MA multiplier is far larger (the bench
  // reproduces Fig. 3); on this 1500-AS test graph a >1.25x aggregate gain
  // already confirms the qualitative effect.
  EXPECT_GT(ma_total, 1.25 * grc_total);
  EXPECT_GT(report.additional_paths.mean, 0.0);
  EXPECT_GT(report.additional_dests.mean, 0.0);
}

TEST(Report, SampleSourcesIsDeterministicAndComplete) {
  topology::GeneratorParams params;
  params.num_ases = 200;
  params.tier1_count = 4;
  params.seed = 33;
  const auto topo = topology::generate_internet(params);
  const auto a = sample_sources(topo.graph, 50, 9);
  const auto b = sample_sources(topo.graph, 50, 9);
  EXPECT_EQ(a, b);
  const auto all = sample_sources(topo.graph, 10000, 9);
  EXPECT_EQ(all.size(), topo.graph.num_ases());
}

}  // namespace
}  // namespace panagree::diversity
