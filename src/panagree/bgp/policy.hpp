// Routing policies over an AS relationship graph, compiled to SPP instances.
//
// The Gao-Rexford conditions (GRC) consist of (i) export rules - routes
// learned from peers/providers are only exported to customers; customer
// routes go to everyone - and (ii) the preference rule customer > peer >
// provider. Under these rules BGP provably converges; the policy compiler
// here enumerates exactly the GRC-permitted (valley-free) paths with GRC
// ranking, so instances built from it converge in the SPVP simulator.
//
// GRC-violating "mutual provider access" policies (the paper's §II sibling
// example) are compiled by make_mutual_transit_spp and feed the DISAGREE /
// BAD GADGET demonstrations.
//
// Both compilers run on the shared paths::PathEnumerator engine: the graph
// is compiled to a CSR snapshot once, per-node permitted paths are
// enumerated under a valley-free (or mutual-transit-extended) step policy,
// and nodes are fanned out over the parallel source driver. Results are
// deterministic for every thread count.
#pragma once

#include <vector>

#include "panagree/bgp/spp.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/graph.hpp"

namespace panagree::bgp {

using topology::Graph;
using topology::NeighborRole;

/// True iff `path` (source first) is valley-free in `graph`: zero or more
/// customer->provider steps, at most one peering step, then zero or more
/// provider->customer steps. Single-AS paths are trivially valley-free.
[[nodiscard]] bool is_valley_free(const Graph& graph,
                                  const std::vector<AsId>& path);

/// True iff every transit AS on the path forwards in accordance with GRC
/// economics: each intermediate AS has the previous or the next hop as a
/// customer. Equivalent to valley-freedom for well-formed paths.
[[nodiscard]] bool grc_forwarding_allowed(const Graph& graph,
                                          const std::vector<AsId>& path);

struct GaoRexfordOptions {
  /// Maximum AS-path length enumerated (including both endpoints).
  std::size_t max_path_length = 6;
  /// Prefer shorter paths within the same relationship class.
  bool shorter_is_better = true;
  /// Worker threads for the per-source enumeration fan-out; 0 = one per
  /// allowed cpu. Results are identical for every value.
  std::size_t threads = 0;
};

/// Compiles a Gao-Rexford SPP instance for `destination`: permitted paths
/// are all simple valley-free paths up to the length bound, ranked
/// customer-route > peer-route > provider-route, then by length, then
/// lexicographically (a deterministic tie-break).
[[nodiscard]] SppInstance make_gao_rexford_spp(
    const Graph& graph, AsId destination, const GaoRexfordOptions& options = {});

/// Same, over an existing snapshot: callers compiling SPP instances for
/// many destinations of one graph should compile once and use this.
[[nodiscard]] SppInstance make_gao_rexford_spp(
    const topology::CompiledTopology& topo, AsId destination,
    const GaoRexfordOptions& options = {});

/// A GRC-violating "mutual provider access" arrangement: each AS pair listed
/// in `mutual_transit` additionally exchanges routes learned from providers
/// (and prefers routes learned from those peers over its own provider
/// routes, as in the paper's §II DISAGREE construction).
[[nodiscard]] SppInstance make_mutual_transit_spp(
    const Graph& graph, AsId destination,
    const std::vector<std::pair<AsId, AsId>>& mutual_transit,
    const GaoRexfordOptions& options = {});

/// Same, over an existing snapshot (no per-call compilation).
[[nodiscard]] SppInstance make_mutual_transit_spp(
    const topology::CompiledTopology& topo, AsId destination,
    const std::vector<std::pair<AsId, AsId>>& mutual_transit,
    const GaoRexfordOptions& options = {});

}  // namespace panagree::bgp
