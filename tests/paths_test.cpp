// Tests for the unified path-enumeration engine: equivalence against
// straightforward reference implementations over Graph, role-masked row
// walks against full-row walks, and determinism of the parallel source
// driver for every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>

#include "panagree/bgp/analysis.hpp"
#include "panagree/bgp/policy.hpp"
#include "panagree/diversity/length3.hpp"
#include "panagree/diversity/report.hpp"
#include "panagree/pan/beaconing.hpp"
#include "panagree/pan/path_construction.hpp"
#include "panagree/paths/enumerator.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/scenario/overlay.hpp"
#include "panagree/topology/examples.hpp"
#include "panagree/topology/generator.hpp"
#include "panagree/util/rng.hpp"

namespace panagree::paths {
namespace {

using topology::AsId;
using topology::Graph;
using topology::NeighborRole;

// ----------------------------------------------------- reference walkers

/// The pre-engine valley-free DFS, kept verbatim as a reference oracle:
/// per-hop Graph::neighbors() allocation and role_of() hash lookups.
std::vector<Path> reference_valley_free(const Graph& graph, AsId src,
                                        AsId dst, std::size_t max_len) {
  enum class Phase { kClimbing, kDescending };
  std::vector<Path> out;
  if (src == dst) {
    out.push_back({src});
    return out;
  }
  std::vector<bool> on_path(graph.num_ases(), false);
  Path path{src};
  on_path[src] = true;
  const std::function<void(AsId, Phase)> dfs = [&](AsId cur, Phase phase) {
    if (path.size() >= max_len) {
      return;
    }
    for (const AsId next : graph.neighbors(cur)) {
      if (on_path[next]) {
        continue;
      }
      const auto role = *graph.role_of(cur, next);
      Phase next_phase = phase;
      if (role == NeighborRole::kProvider || role == NeighborRole::kPeer) {
        if (phase != Phase::kClimbing) {
          continue;
        }
        next_phase = role == NeighborRole::kPeer ? Phase::kDescending
                                                 : Phase::kClimbing;
      } else {
        next_phase = Phase::kDescending;
      }
      path.push_back(next);
      if (next == dst) {
        out.push_back(path);
      } else {
        on_path[next] = true;
        dfs(next, next_phase);
        on_path[next] = false;
      }
      path.pop_back();
    }
  };
  dfs(src, Phase::kClimbing);
  return out;
}

using MidDst = std::pair<AsId, AsId>;

/// The pre-engine direct/indirect MA enumeration, kept as an oracle.
std::set<MidDst> reference_ma_pairs(const Graph& graph, AsId src,
                                    bool include_indirect) {
  std::set<MidDst> out;
  const auto excluded = [&](AsId z) {
    return z == src || graph.role_of(src, z) == NeighborRole::kCustomer;
  };
  for (const AsId p : graph.peers(src)) {
    for (const AsId z : graph.providers(p)) {
      if (!excluded(z)) {
        out.insert({p, z});
      }
    }
    for (const AsId z : graph.peers(p)) {
      if (!excluded(z)) {
        out.insert({p, z});
      }
    }
  }
  if (!include_indirect) {
    return out;
  }
  const auto add_indirect = [&](AsId p) {
    for (const AsId q : graph.peers(p)) {
      if (q == src) {
        continue;
      }
      if (graph.role_of(q, src) == NeighborRole::kCustomer) {
        continue;
      }
      out.insert({p, q});
    }
  };
  for (const AsId p : graph.customers(src)) {
    add_indirect(p);
  }
  for (const AsId p : graph.peers(src)) {
    add_indirect(p);
  }
  return out;
}

std::set<Path> as_set(const std::vector<Path>& paths) {
  return {paths.begin(), paths.end()};
}

// ------------------------------------------------- valley-free walk core

class EngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineEquivalence, ValleyFreeWalkMatchesReference) {
  topology::GeneratorParams params;
  params.num_ases = 250;
  params.tier1_count = 4;
  params.seed = GetParam();
  const auto topo = topology::generate_internet(params);
  const topology::CompiledTopology compiled(topo.graph);
  const PathEnumerator enumerator(compiled);
  for (AsId src = 0; src < 12; ++src) {
    for (AsId dst = 30; dst < 36; ++dst) {
      const auto expected =
          as_set(reference_valley_free(topo.graph, src, dst, 5));
      const auto got = as_set(
          enumerator.paths_between(src, dst, 5, ValleyFreeStep{}));
      EXPECT_EQ(got, expected) << "src=" << src << " dst=" << dst;
    }
  }
}

TEST_P(EngineEquivalence, MaPoliciesMatchReference) {
  topology::GeneratorParams params;
  params.num_ases = 350;
  params.tier1_count = 4;
  params.seed = GetParam() + 100;
  const auto topo = topology::generate_internet(params);
  const diversity::Length3Analyzer analyzer(topo.graph);
  for (AsId src = 0; src < 60; ++src) {
    for (const bool indirect : {false, true}) {
      const auto expected = reference_ma_pairs(topo.graph, src, indirect);
      std::set<MidDst> got;
      const auto paths = indirect ? analyzer.ma_paths(src)
                                  : analyzer.ma_direct_paths(src);
      for (const auto& p : paths) {
        EXPECT_TRUE(got.insert({p.mid, p.dst}).second)
            << "duplicate (mid,dst) emitted";
      }
      EXPECT_EQ(got, expected) << "src=" << src << " indirect=" << indirect;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence, ::testing::Values(1, 2, 9));

TEST(Engine, Fig1ValleyFreePathsHtoI) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  const PathEnumerator enumerator(compiled);
  const auto got =
      as_set(enumerator.paths_between(t.H, t.I, 6, ValleyFreeStep{}));
  const std::set<Path> expected{{t.H, t.D, t.E, t.I},
                                {t.H, t.D, t.A, t.B, t.E, t.I}};
  EXPECT_EQ(got, expected);
}

TEST(Engine, IsValleyFreeAgreesWithBgpLayer) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  for (const Path& p :
       {Path{t.H, t.D, t.A}, Path{t.D, t.E, t.B}, Path{t.A, t.D, t.E},
        Path{t.H}, Path{}, Path{t.H, t.I}}) {
    EXPECT_EQ(is_valley_free(compiled, p), bgp::is_valley_free(t.graph, p));
  }
}

TEST(Engine, MutualTransitStepReclimbsOnlyAcrossAgreement) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  const PathEnumerator enumerator(compiled);
  // Without the agreement, D cannot reach A via E (peer then provider).
  const auto plain =
      as_set(enumerator.paths_between(t.D, t.B, 6, ValleyFreeStep{}));
  EXPECT_FALSE(plain.contains(Path{t.D, t.E, t.B}));
  const MutualTransitStep mutual({{t.D, t.E}});
  const auto extended = as_set(enumerator.paths_between(t.D, t.B, 6, mutual));
  EXPECT_TRUE(extended.contains(Path{t.D, t.E, t.B}));
  // The plain valley-free set is a subset of the extended one.
  for (const Path& p : plain) {
    EXPECT_TRUE(extended.contains(p));
  }
}

// ------------------------------------------------------ masked row walks

/// `Policy` with admissible_roles widened to every role: the DFS then
/// walks every row whole and allowed() alone decides. The full-row oracle
/// of the role-masked walk.
template <typename Policy>
class FullRowOracle {
 public:
  using State = typename Policy::State;

  explicit FullRowOracle(const Policy& policy) : policy_(&policy) {}

  [[nodiscard]] State initial_state() const {
    return policy_->initial_state();
  }
  [[nodiscard]] RoleMask admissible_roles(State /*state*/) const {
    return kAllRoles;
  }
  [[nodiscard]] bool allowed(const Step& step, State state,
                             State& next_state) const {
    return policy_->allowed(step, state, next_state);
  }

 private:
  const Policy* policy_;
};

/// Every path `policy` admits from `src` (up to `max_len` ASes), in DFS
/// order.
template <typename Topo, typename Policy>
std::vector<Path> walk(const Topo& topo, AsId src, std::size_t max_len,
                       const Policy& policy) {
  std::vector<Path> out;
  BasicPathEnumerator<Topo>(topo).visit_paths(
      src, max_len, policy, [&](const Path& path) {
        out.push_back(path);
        return true;
      });
  return out;
}

/// Paths emitted by the crossing walks, with and without the registry.
struct PolicyWalks {
  std::size_t crossing_paths = 0;
  std::size_t no_crossing_paths = 0;
};

/// Checks every shipped policy from every `stride`-th source of `topo`:
/// the masked walk must emit the same paths in the same order as the
/// full-row oracle.
template <typename Topo>
PolicyWalks expect_masked_walks_match_oracle(
    const Topo& topo, const std::vector<std::pair<AsId, AsId>>& mutual,
    const pan::CrossingRegistry& crossings, AsId stride,
    const std::string& label) {
  const MutualTransitStep mutual_transit(mutual);
  const BasicMaLength3Step<Topo> ma_direct(topo, false);
  const BasicMaLength3Step<Topo> ma_indirect(topo, true);
  const pan::CrossingStep crossing(&crossings);
  const pan::CrossingStep no_crossing(nullptr);
  PolicyWalks totals;
  for (AsId src = 0; src < topo.num_ases(); src += stride) {
    const auto check = [&](const auto& policy, std::size_t max_len,
                           const char* name) {
      const std::vector<Path> masked = walk(topo, src, max_len, policy);
      const std::vector<Path> oracle =
          walk(topo, src, max_len, FullRowOracle(policy));
      EXPECT_TRUE(masked == oracle)
          << label << " " << name << " src=" << src << ": "
          << masked.size() << " masked paths, " << oracle.size()
          << " full-row";
      return masked.size();
    };
    check(ValleyFreeStep{}, 4, "valley-free");
    check(mutual_transit, 4, "mutual-transit");
    check(ma_direct, 3, "ma-direct");
    check(ma_indirect, 3, "ma-indirect");
    totals.crossing_paths += check(crossing, 4, "crossing");
    totals.no_crossing_paths += check(no_crossing, 4, "no-crossing");
  }
  return totals;
}

topology::GeneratedTopology masked_walk_topology(std::size_t ases,
                                                 std::uint64_t seed) {
  topology::GeneratorParams params;
  params.num_ases = ases;
  params.tier1_count = 4;
  params.seed = seed;
  return topology::generate_internet(params);
}

/// A few base peering links, the agreements of the mutual-transit walk.
std::vector<std::pair<AsId, AsId>> some_peerings(const Graph& graph) {
  std::vector<std::pair<AsId, AsId>> out;
  for (const topology::Link& link : graph.links()) {
    if (link.type == topology::LinkType::kPeering && out.size() < 8) {
      out.emplace_back(link.a, link.b);
    }
  }
  return out;
}

/// Random crossings at ASes with two or more neighbors: forward from one
/// neighbor to another, whatever their roles, for every source.
pan::CrossingRegistry random_crossings(const Graph& graph,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  pan::CrossingRegistry crossings;
  for (int i = 0; i < 60; ++i) {
    const auto at = static_cast<AsId>(rng.uniform_index(graph.num_ases()));
    const std::vector<AsId> neighbors = graph.neighbors(at);
    if (neighbors.size() < 2) {
      continue;
    }
    const AsId from = neighbors[rng.uniform_index(neighbors.size())];
    const AsId to = neighbors[rng.uniform_index(neighbors.size())];
    if (from != to) {
      crossings.add(pan::Crossing{at, from, to, {}});
    }
  }
  return crossings;
}

/// A delta of every kind over `graph`: base-link removals, rewires (a
/// removed pair re-added with another relationship) and added links of
/// both types, so added row entries take all three roles (a peering adds
/// a peer to both rows, a provider-customer link a customer to one and a
/// provider to the other).
scenario::Delta random_overlay_delta(const Graph& graph, util::Rng& rng) {
  using topology::LinkType;
  scenario::Delta delta;
  std::set<std::pair<AsId, AsId>> used;
  const auto claim = [&](AsId a, AsId b) {
    return used.insert(std::minmax(a, b)).second;
  };
  for (int i = 0; i < 4; ++i) {
    const topology::Link& link =
        graph.link(rng.uniform_index(graph.num_links()));
    if (!claim(link.a, link.b)) {
      continue;
    }
    delta.remove.emplace_back(link.a, link.b);
    if (rng.bernoulli(0.5)) {
      continue;
    }
    if (link.type == LinkType::kPeering) {
      delta.add.push_back({link.a, link.b, LinkType::kProviderCustomer});
    } else if (rng.bernoulli(0.5)) {
      delta.add.push_back({link.b, link.a, LinkType::kProviderCustomer});
    } else {
      delta.add.push_back({link.a, link.b, LinkType::kPeering});
    }
  }
  for (int i = 0; i < 12; ++i) {
    const auto a = static_cast<AsId>(rng.uniform_index(graph.num_ases()));
    const auto b = static_cast<AsId>(rng.uniform_index(graph.num_ases()));
    if (a == b || graph.link_between(a, b).has_value() || !claim(a, b)) {
      continue;
    }
    delta.add.push_back({a, b,
                         i % 2 == 0 ? LinkType::kPeering
                                    : LinkType::kProviderCustomer});
  }
  return delta;
}

TEST(MaskedWalk, MatchesFullRowOracleOnCompiledTopology) {
  const auto topo = masked_walk_topology(300, 23);
  const topology::CompiledTopology compiled(topo.graph);
  const auto mutual = some_peerings(topo.graph);
  ASSERT_FALSE(mutual.empty()) << "generator produced no peering links";
  const PolicyWalks walks = expect_masked_walks_match_oracle(
      compiled, mutual, random_crossings(topo.graph, 5), 7, "compiled");
  // The registry must open walks the valley-free rule alone does not.
  EXPECT_GT(walks.crossing_paths, walks.no_crossing_paths);
}

TEST(MaskedWalk, MatchesFullRowOracleOnRandomOverlays) {
  const auto topo = masked_walk_topology(120, 41);
  const topology::CompiledTopology compiled(topo.graph);
  const auto mutual = some_peerings(topo.graph);
  const pan::CrossingRegistry crossings = random_crossings(topo.graph, 6);
  util::Rng rng(2026);
  for (int round = 0; round < 8; ++round) {
    const scenario::Delta delta = random_overlay_delta(topo.graph, rng);
    scenario::Overlay overlay(compiled);
    overlay.apply(delta);
    ASSERT_FALSE(overlay.empty());
    (void)expect_masked_walks_match_oracle(overlay, mutual, crossings, 1,
                                           "overlay " +
                                               std::to_string(round));
  }
}

// -------------------------------------------------------- parallel driver

TEST(MapSources, PreservesSourceOrder) {
  std::vector<AsId> sources;
  for (AsId as = 0; as < 300; ++as) {
    sources.push_back(as);
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto results = map_sources(sources, threads, [](AsId as) {
      return static_cast<std::size_t>(as) * 3 + 1;
    });
    ASSERT_EQ(results.size(), sources.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * 3 + 1);
    }
  }
}

TEST(MapSources, PropagatesExceptions) {
  // Enough sources to clear the small-workload serial cutoff, so the
  // worker-pool rethrow path is the one under test.
  std::vector<AsId> sources(2 * kMinParallelSources);
  for (AsId as = 0; as < sources.size(); ++as) {
    sources[as] = as;
  }
  EXPECT_THROW(
      (void)map_sources(sources, 4,
                        [](AsId as) -> int {
                          if (as == 35) {
                            throw util::PreconditionError("boom");
                          }
                          return 0;
                        }),
      util::PreconditionError);
}

TEST(MapSources, SmallWorkloadsRunSeriallyButIdentically) {
  const std::vector<AsId> sources{3, 1, 4, 1, 5};  // below the cutoff
  const auto results =
      map_sources(sources, 8, [](AsId as) { return static_cast<int>(as); });
  EXPECT_EQ(results, (std::vector<int>{3, 1, 4, 1, 5}));
}

TEST(MapSources, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

// Determinism: the parallel enumerator yields byte-identical results to the
// serial path for every thread count in {1, 2, 8}.

TEST(Determinism, GaoRexfordSppIdenticalForEveryThreadCount) {
  topology::GeneratorParams params;
  params.num_ases = 120;
  params.tier1_count = 4;
  params.seed = 77;
  const auto topo = topology::generate_internet(params);
  const AsId dest = 60;
  const auto serial = bgp::make_gao_rexford_spp(
      topo.graph, dest, {.max_path_length = 5, .threads = 1});
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = bgp::make_gao_rexford_spp(
        topo.graph, dest, {.max_path_length = 5, .threads = threads});
    for (AsId node = 0; node < topo.graph.num_ases(); ++node) {
      EXPECT_EQ(parallel.permitted(node), serial.permitted(node))
          << "node " << node << " threads " << threads;
    }
  }
}

TEST(Determinism, DiversityReportIdenticalForEveryThreadCount) {
  topology::GeneratorParams params;
  params.num_ases = 500;
  params.tier1_count = 5;
  params.seed = 13;
  const auto topo = topology::generate_internet(params);
  diversity::DiversityParams dp;
  dp.sample_sources = 80;
  dp.threads = 1;
  const auto serial = diversity::analyze_path_diversity(topo.graph, dp);
  for (const std::size_t threads : {2u, 8u}) {
    dp.threads = threads;
    const auto parallel = diversity::analyze_path_diversity(topo.graph, dp);
    ASSERT_EQ(parallel.path_rows.size(), serial.path_rows.size());
    for (std::size_t i = 0; i < serial.path_rows.size(); ++i) {
      EXPECT_EQ(parallel.path_rows[i].as, serial.path_rows[i].as);
      EXPECT_EQ(parallel.path_rows[i].grc, serial.path_rows[i].grc);
      EXPECT_EQ(parallel.path_rows[i].ma_top, serial.path_rows[i].ma_top);
      EXPECT_EQ(parallel.path_rows[i].ma_star, serial.path_rows[i].ma_star);
      EXPECT_EQ(parallel.path_rows[i].ma_all, serial.path_rows[i].ma_all);
      EXPECT_EQ(parallel.dest_rows[i].grc, serial.dest_rows[i].grc);
      EXPECT_EQ(parallel.dest_rows[i].ma_top, serial.dest_rows[i].ma_top);
      EXPECT_EQ(parallel.dest_rows[i].ma_star, serial.dest_rows[i].ma_star);
      EXPECT_EQ(parallel.dest_rows[i].ma_all, serial.dest_rows[i].ma_all);
    }
    EXPECT_EQ(parallel.additional_paths.mean, serial.additional_paths.mean);
    EXPECT_EQ(parallel.additional_dests.max, serial.additional_dests.max);
  }
}

// --------------------------------------------- PAN crossing-policy walks

TEST(CrossingWalk, ConstructCandidatesAreAuthorizedWalks) {
  auto t = topology::make_fig1();
  pan::BeaconService beacons(t.graph);
  beacons.run();
  const pan::PathConstructor constructor(t.graph, beacons);
  pan::CrossingRegistry crossings;
  crossings.add(pan::Crossing{t.E, t.D, t.B, {t.D, t.H}});
  const pan::CrossingRegistry* registries[] = {nullptr, &crossings};
  for (const pan::CrossingRegistry* reg : registries) {
    for (const AsId dst : {t.I, t.B}) {
      const auto candidates = constructor.construct(t.H, dst, reg);
      // Default bound = the constructor's max_path_length, so the superset
      // guarantee holds for every candidate construct() can emit.
      const auto exhaustive = constructor.enumerate_authorized(t.H, dst, reg);
      const auto universe = as_set(exhaustive);
      for (const auto& path : candidates) {
        EXPECT_TRUE(universe.contains(path))
            << "candidate not an authorized walk";
      }
    }
  }
}

TEST(CrossingWalk, CrossingUnlocksGrcViolatingPath) {
  auto t = topology::make_fig1();
  pan::BeaconService beacons(t.graph);
  beacons.run();
  const pan::PathConstructor constructor(t.graph, beacons);
  const Path hdeb{t.H, t.D, t.E, t.B};
  EXPECT_FALSE(
      as_set(constructor.enumerate_authorized(t.H, t.B, nullptr, 6))
          .contains(hdeb));
  pan::CrossingRegistry crossings;
  crossings.add(pan::Crossing{t.E, t.D, t.B, {t.D, t.H}});
  EXPECT_TRUE(
      as_set(constructor.enumerate_authorized(t.H, t.B, &crossings, 6))
          .contains(hdeb));
  // Source restriction: a registry scoped to D only does not admit H.
  pan::CrossingRegistry only_d;
  only_d.add(pan::Crossing{t.E, t.D, t.B, {t.D}});
  EXPECT_FALSE(
      as_set(constructor.enumerate_authorized(t.H, t.B, &only_d, 6))
          .contains(hdeb));
}

// ------------------------------------------------------------- adapters

TEST(Adapters, GraphOverloadEqualsCompiledOverload) {
  const auto t = topology::make_fig1();
  const topology::CompiledTopology compiled(t.graph);
  EXPECT_EQ(bgp::enumerate_valley_free_paths(t.graph, t.H, t.I, 6),
            bgp::enumerate_valley_free_paths(compiled, t.H, t.I, 6));
}

}  // namespace
}  // namespace panagree::paths
