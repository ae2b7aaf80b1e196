#include "panagree/topology/compiled.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace panagree::topology {

void CompiledTopology::point_at_owned() noexcept {
  row_start_ = owned_row_start_.data();
  providers_end_ = owned_providers_end_.data();
  peers_end_ = owned_peers_end_.data();
  entries_ = owned_entries_.data();
  num_ases_ = owned_row_start_.empty() ? 0 : owned_row_start_.size() - 1;
  num_entries_ = owned_entries_.size();
}

CompiledTopology::CompiledTopology(const Graph& graph) : graph_(&graph) {
  const std::size_t n = graph.num_ases();
  util::require(2 * graph.num_links() <
                    std::numeric_limits<std::uint32_t>::max(),
                "CompiledTopology: too many links for 32-bit offsets");

  owned_row_start_.assign(n + 1, 0);
  owned_providers_end_.assign(n, 0);
  owned_peers_end_.assign(n, 0);
  for (AsId as = 0; as < n; ++as) {
    const auto base = owned_row_start_[as];
    const auto np = static_cast<std::uint32_t>(graph.providers(as).size());
    const auto ne = static_cast<std::uint32_t>(graph.peers(as).size());
    const auto nc = static_cast<std::uint32_t>(graph.customers(as).size());
    owned_providers_end_[as] = base + np;
    owned_peers_end_[as] = base + np + ne;
    owned_row_start_[as + 1] = base + np + ne + nc;
  }
  owned_entries_.resize(owned_row_start_[n]);

  // Fill each role group from the link table (one pass; group-relative
  // cursors), then sort every group by neighbor id for binary lookup.
  std::vector<std::uint32_t> cursor(3 * n, 0);
  const auto emplace = [&](AsId at, std::size_t group, std::uint32_t begin,
                           AsId neighbor, NeighborRole role, LinkId link) {
    const std::uint32_t slot = begin + cursor[3 * at + group]++;
    owned_entries_[slot] =
        Entry{neighbor, static_cast<std::uint32_t>(link), role};
  };
  const auto& links = graph.links();
  for (LinkId id = 0; id < links.size(); ++id) {
    const Link& l = links[id];
    if (l.type == LinkType::kProviderCustomer) {
      // a is the provider, b the customer.
      emplace(l.a, 2, owned_peers_end_[l.a], l.b, NeighborRole::kCustomer, id);
      emplace(l.b, 0, owned_row_start_[l.b], l.a, NeighborRole::kProvider, id);
    } else {
      emplace(l.a, 1, owned_providers_end_[l.a], l.b, NeighborRole::kPeer, id);
      emplace(l.b, 1, owned_providers_end_[l.b], l.a, NeighborRole::kPeer, id);
    }
  }

  const auto by_neighbor = [](const Entry& x, const Entry& y) {
    return x.neighbor < y.neighbor;
  };
  for (AsId as = 0; as < n; ++as) {
    std::sort(owned_entries_.begin() + owned_row_start_[as],
              owned_entries_.begin() + owned_providers_end_[as], by_neighbor);
    std::sort(owned_entries_.begin() + owned_providers_end_[as],
              owned_entries_.begin() + owned_peers_end_[as], by_neighbor);
    std::sort(owned_entries_.begin() + owned_peers_end_[as],
              owned_entries_.begin() + owned_row_start_[as + 1], by_neighbor);
  }
  point_at_owned();
}

CompiledTopology CompiledTopology::borrow(
    const Graph& graph, std::span<const std::uint32_t> row_start,
    std::span<const std::uint32_t> providers_end,
    std::span<const std::uint32_t> peers_end, std::span<const Entry> entries) {
  const std::size_t n = graph.num_ases();
  util::require(row_start.size() == n + 1 && providers_end.size() == n &&
                    peers_end.size() == n,
                "CompiledTopology::borrow: CSR offset arrays do not match "
                "the graph's AS count");
  util::require(!row_start.empty() && row_start.back() == entries.size() &&
                    entries.size() == 2 * graph.num_links(),
                "CompiledTopology::borrow: entry array does not match the "
                "graph's link count");
  CompiledTopology out;
  out.graph_ = &graph;
  out.owns_ = false;
  out.row_start_ = row_start.data();
  out.providers_end_ = providers_end.data();
  out.peers_end_ = peers_end.data();
  out.entries_ = entries.data();
  out.num_ases_ = n;
  out.num_entries_ = entries.size();
  return out;
}

void CompiledTopology::adopt_views_from(const CompiledTopology& other) {
  if (owns_) {
    point_at_owned();
  } else {
    row_start_ = other.row_start_;
    providers_end_ = other.providers_end_;
    peers_end_ = other.peers_end_;
    entries_ = other.entries_;
    num_ases_ = other.num_ases_;
    num_entries_ = other.num_entries_;
  }
}

CompiledTopology::CompiledTopology(const CompiledTopology& other)
    : graph_(other.graph_),
      owns_(other.owns_),
      owned_row_start_(other.owned_row_start_),
      owned_providers_end_(other.owned_providers_end_),
      owned_peers_end_(other.owned_peers_end_),
      owned_entries_(other.owned_entries_) {
  adopt_views_from(other);
}

CompiledTopology& CompiledTopology::operator=(const CompiledTopology& other) {
  if (this != &other) {
    *this = CompiledTopology(other);  // copy, then move-assign
  }
  return *this;
}

CompiledTopology::CompiledTopology(CompiledTopology&& other) noexcept
    : graph_(other.graph_),
      owns_(other.owns_),
      owned_row_start_(std::move(other.owned_row_start_)),
      owned_providers_end_(std::move(other.owned_providers_end_)),
      owned_peers_end_(std::move(other.owned_peers_end_)),
      owned_entries_(std::move(other.owned_entries_)) {
  adopt_views_from(other);
}

CompiledTopology& CompiledTopology::operator=(
    CompiledTopology&& other) noexcept {
  if (this != &other) {
    graph_ = other.graph_;
    owns_ = other.owns_;
    owned_row_start_ = std::move(other.owned_row_start_);
    owned_providers_end_ = std::move(other.owned_providers_end_);
    owned_peers_end_ = std::move(other.owned_peers_end_);
    owned_entries_ = std::move(other.owned_entries_);
    adopt_views_from(other);
  }
  return *this;
}

const CompiledTopology::Entry* CompiledTopology::find(AsId x, AsId y) const {
  check(x);
  // Short rows are scanned linearly (branch-predictable, one cache line);
  // long rows use a binary search per role group.
  constexpr std::size_t kLinearThreshold = 16;
  if (degree(x) <= kLinearThreshold) {
    for (const Entry& e : entries(x)) {
      if (e.neighbor == y) {
        return &e;
      }
    }
    return nullptr;
  }
  const auto search = [&](std::span<const Entry> group) -> const Entry* {
    const auto it = std::lower_bound(
        group.begin(), group.end(), y,
        [](const Entry& e, AsId id) { return e.neighbor < id; });
    return (it != group.end() && it->neighbor == y) ? &*it : nullptr;
  };
  if (const Entry* e = search(providers(x))) {
    return e;
  }
  if (const Entry* e = search(peers(x))) {
    return e;
  }
  return search(customers(x));
}

}  // namespace panagree::topology
