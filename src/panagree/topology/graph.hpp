// AS-level Internet topology: the mixed graph G = (A, L<->, L^) of §III-A.
//
// Nodes are autonomous systems; undirected edges are (settlement-free)
// peering links and directed edges are provider->customer links. Every AS X
// exposes its provider set pi(X), peer set eps(X), and customer set gamma(X).
// Geographic attributes (PoPs, centroid, per-link facilities) support the
// geodistance analysis of §VI-B.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "panagree/geo/coordinates.hpp"
#include "panagree/util/error.hpp"
#include "panagree/util/pair_index.hpp"

namespace panagree::topology {

/// Dense AS identifier (index into the graph's node table).
using AsId = std::uint32_t;
/// Dense link identifier (index into the graph's link table).
using LinkId = std::size_t;

inline constexpr AsId kInvalidAs = static_cast<AsId>(-1);

/// Business relationship carried by a link.
enum class LinkType : std::uint8_t {
  kProviderCustomer,  ///< directed: money flows customer -> provider
  kPeering,           ///< undirected, settlement-free (§III-A)
};

/// Role of a neighbor Y as seen from X.
enum class NeighborRole : std::uint8_t { kProvider, kPeer, kCustomer };

/// A set of neighbor roles: bit (1 << role) admits that role. Adjacency
/// rows are grouped by role, so a mask selects whole row groups
/// (CompiledTopology::for_each_entry).
using RoleMask = std::uint8_t;

/// The bit admitting `role`.
[[nodiscard]] constexpr RoleMask role_bit(NeighborRole role) {
  return static_cast<RoleMask>(1U << static_cast<unsigned>(role));
}

inline constexpr RoleMask kProviderBit = role_bit(NeighborRole::kProvider);
inline constexpr RoleMask kPeerBit = role_bit(NeighborRole::kPeer);
inline constexpr RoleMask kCustomerBit = role_bit(NeighborRole::kCustomer);
inline constexpr RoleMask kAllRoles = kProviderBit | kPeerBit | kCustomerBit;

/// An inter-AS link. For kProviderCustomer links, `a` is the provider and
/// `b` the customer; for kPeering links the order carries no meaning.
struct Link {
  AsId a = kInvalidAs;
  AsId b = kInvalidAs;
  LinkType type = LinkType::kPeering;
  /// Candidate interconnection facilities (city ids in a geo::World);
  /// the geodistance of a path minimizes over these (§VI-B).
  std::vector<std::size_t> facilities;
  /// Link capacity (degree-gravity model, §VI-C); 0 until assigned.
  double capacity = 0.0;

  [[nodiscard]] AsId other(AsId self) const {
    PANAGREE_ASSERT(self == a || self == b);
    return self == a ? b : a;
  }
};

/// Per-AS metadata.
struct AsInfo {
  std::string name;
  /// 1 = Tier-1 core, 2 = regional transit, 3 = stub/edge; 0 = unspecified.
  int tier = 0;
  /// Region index in a geo::World (generator-assigned).
  std::size_t region = 0;
  /// Points of presence (city ids in a geo::World).
  std::vector<std::size_t> pops;
  /// Center of gravity of the AS (spherical centroid of its PoPs), the
  /// paper's prefix-averaging artifact.
  geo::LatLng centroid;
  bool has_geo = false;
};

/// The AS graph. Construction is append-only: ASes and links can be added
/// but not removed, which keeps all ids stable.
class Graph {
 public:
  /// Adds an AS and returns its id. Name defaults to "AS<id>".
  AsId add_as(std::string name = {});

  /// Rebuilds a graph from its node and link tables - the bulk-load path
  /// of the storage layer's snapshot reader. Equivalent to replaying
  /// add_as/add_peering/add_provider_customer in id order (so adjacency
  /// rows come out in link-id order, exactly like the original
  /// construction) and then restoring the stored per-AS and per-link
  /// metadata. Validates names (unique, non-empty), link endpoints
  /// (in-range, no self-loops), and pair uniqueness; throws
  /// util::PreconditionError on violation.
  [[nodiscard]] static Graph restore(std::vector<AsInfo> infos,
                                     std::vector<Link> links);

  /// Adds a provider->customer link; rejects self-loops and duplicate pairs.
  LinkId add_provider_customer(AsId provider, AsId customer);

  /// Adds a peering link; rejects self-loops and duplicate pairs.
  LinkId add_peering(AsId x, AsId y);

  [[nodiscard]] std::size_t num_ases() const { return infos_.size(); }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }

  [[nodiscard]] const Link& link(LinkId id) const;
  [[nodiscard]] Link& link(LinkId id);
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }

  [[nodiscard]] const AsInfo& info(AsId as) const;
  [[nodiscard]] AsInfo& info(AsId as);

  /// pi(X): providers of `as`.
  [[nodiscard]] const std::vector<AsId>& providers(AsId as) const;
  /// eps(X): peers of `as`.
  [[nodiscard]] const std::vector<AsId>& peers(AsId as) const;
  /// gamma(X): customers of `as` (excluding the virtual end-host stub).
  [[nodiscard]] const std::vector<AsId>& customers(AsId as) const;

  /// All neighbors of `as` in the order providers, peers, customers.
  /// Allocates a fresh vector per call - do NOT use in hot loops; iterate
  /// with for_each_neighbor, or compile a CompiledTopology snapshot and
  /// use its zero-copy entry spans instead.
  [[nodiscard]] std::vector<AsId> neighbors(AsId as) const;

  /// Zero-allocation neighbor visitation in the order providers, peers,
  /// customers: invokes `fn(neighbor)` for every neighbor of `as`.
  template <typename Fn>
  void for_each_neighbor(AsId as, Fn&& fn) const {
    util::require(as < adjacency_.size(),
                  "Graph::for_each_neighbor: AS out of range");
    const Adjacency& adj = adjacency_[as];
    for (const AsId n : adj.providers) {
      fn(n);
    }
    for (const AsId n : adj.peers) {
      fn(n);
    }
    for (const AsId n : adj.customers) {
      fn(n);
    }
  }

  /// Total neighbor count (node degree; used by the degree-gravity model).
  [[nodiscard]] std::size_t degree(AsId as) const;

  /// Link between x and y if one exists.
  [[nodiscard]] std::optional<LinkId> link_between(AsId x, AsId y) const;

  /// Role of y from x's perspective, if they are connected.
  [[nodiscard]] std::optional<NeighborRole> role_of(AsId x, AsId y) const;

  [[nodiscard]] bool are_peers(AsId x, AsId y) const;
  [[nodiscard]] bool is_provider_of(AsId provider, AsId customer) const;
  [[nodiscard]] bool is_customer_of(AsId customer, AsId provider) const;

  /// True iff the provider->customer edges form a DAG (no provider cycles),
  /// as expected of a sane Internet hierarchy.
  [[nodiscard]] bool provider_hierarchy_is_acyclic() const;

  /// True iff the union graph (all links, undirected) is connected.
  [[nodiscard]] bool is_connected() const;

  /// Looks up an AS by name; kInvalidAs if absent.
  [[nodiscard]] AsId find_by_name(const std::string& name) const;

 private:
  struct Adjacency {
    std::vector<AsId> providers;
    std::vector<AsId> peers;
    std::vector<AsId> customers;
  };

  static std::uint64_t pair_key(AsId x, AsId y);
  void check_new_link(AsId x, AsId y) const;

  std::vector<AsInfo> infos_;
  std::vector<Adjacency> adjacency_;
  std::vector<Link> links_;
  /// Flat (lo, hi) pair -> link id index (see util/pair_index.hpp; the
  /// unordered_map it replaced dominated snapshot-restore time).
  util::PairIndex link_index_;
  std::unordered_map<std::string, AsId> name_index_;
};

/// Parses "provider", "peer", or "customer" (used by gadget/test builders).
[[nodiscard]] const char* to_string(NeighborRole role);
[[nodiscard]] const char* to_string(LinkType type);

/// The customer cone of `as`: itself plus everything reachable over
/// provider->customer edges (the ASes whose traffic `as` carries as a
/// transit). Sorted ascending.
[[nodiscard]] std::vector<AsId> customer_cone(const Graph& graph, AsId as);

}  // namespace panagree::topology
