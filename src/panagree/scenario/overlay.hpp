// A what-if link delta over an immutable CSR topology snapshot.
//
// The scenario engine evaluates batches of candidate agreement deployments
// (new peering/interconnection links, depeerings, provider changes). Each
// candidate differs from the base Internet by a handful of links, so
// recompiling a CompiledTopology per scenario - O(A + L log L) - would
// dominate every sweep. Overlay instead applies a Delta (links added and
// links removed) *on top of* an existing snapshot in O(delta log delta):
// the base snapshot is shared, untouched, and never recompiled.
//
// Overlay implements the topology-view protocol of the path engine
// (num_ases / for_each_entry / role_of), so paths::BasicPathEnumerator and
// the step policies run on it unchanged. The crucial guarantee is *order
// equivalence*: for_each_entry yields exactly the adjacency row that
// recompiling the mutated graph would produce - role groups in provider /
// peer / customer order, each sorted ascending by neighbor id, with
// removed links filtered out and added links merged into sorted position.
// A role mask restricts the walk to whole groups of that row, as on the
// base snapshot.
// Path enumeration over an Overlay is therefore byte-identical to
// enumeration over a recompiled mutated topology (paths carry AS ids only;
// link ids of added links are synthetic, see added_link()).
//
// ASes untouched by the delta hit a fast path: one binary search over the
// (tiny) touched-AS list, then the base row is iterated directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "panagree/topology/compiled.hpp"

namespace panagree::scenario {

using topology::AsId;
using topology::CompiledTopology;
using topology::LinkType;
using topology::NeighborRole;

/// One link to add. For kProviderCustomer links `a` is the provider and
/// `b` the customer (Graph's convention); for kPeering the order carries
/// no meaning.
struct LinkChange {
  AsId a = topology::kInvalidAs;
  AsId b = topology::kInvalidAs;
  LinkType type = LinkType::kPeering;

  friend bool operator==(const LinkChange&, const LinkChange&) = default;
};

/// One scenario: the links deployed and the links retired relative to the
/// base snapshot. Removing and re-adding the same pair rewires its
/// relationship (e.g. peering -> provider).
struct Delta {
  std::vector<LinkChange> add;
  std::vector<std::pair<AsId, AsId>> remove;

  [[nodiscard]] bool empty() const { return add.empty() && remove.empty(); }
};

class Overlay {
 public:
  using Entry = CompiledTopology::Entry;

  /// An empty overlay over `base` (which must outlive it). Until apply(),
  /// the view is exactly the base snapshot.
  explicit Overlay(const CompiledTopology& base)
      : base_(&base),
        first_added_link_(
            static_cast<std::uint32_t>(base.graph().links().size())) {}

  /// Replaces the current delta. Validates against the base snapshot:
  /// removed pairs must be base links, added pairs must connect distinct
  /// in-range ASes not already linked (unless the pair is also removed),
  /// and neither list may repeat a pair. Throws util::PreconditionError
  /// and leaves the overlay empty on violation.
  void apply(const Delta& delta);

  /// Back to the empty (= base) view.
  void clear();

  [[nodiscard]] const CompiledTopology& base() const { return *base_; }
  [[nodiscard]] std::size_t num_ases() const { return base_->num_ases(); }
  [[nodiscard]] bool empty() const { return touched_.empty(); }

  /// ASes incident to any added or removed link, sorted ascending. Every
  /// adjacency row of an AS *not* in this list is bit-identical to the
  /// base row - the seed set of the sweep engine's dirty-ball
  /// invalidation.
  [[nodiscard]] const std::vector<AsId>& touched() const { return touched_; }

  [[nodiscard]] bool is_touched(AsId as) const {
    return std::binary_search(touched_.begin(), touched_.end(), as);
  }

  /// Entry::link values >= this denote links added by the overlay; resolve
  /// them with added_link(). Smaller values index base().graph().links().
  [[nodiscard]] std::uint32_t first_added_link_id() const {
    return first_added_link_;
  }

  /// The added link behind a synthetic link id.
  [[nodiscard]] const LinkChange& added_link(std::uint32_t link_id) const;

  /// Overlaid adjacency row of `as`, restricted to the role groups
  /// `roles` admits: the protocol of CompiledTopology::for_each_entry,
  /// with removed links dropped and added links merged in role-group
  /// order.
  template <typename Fn>
  void for_each_entry(AsId as, topology::RoleMask roles, Fn&& fn) const {
    if (!is_touched(as)) {
      base_->for_each_entry(as, roles, fn);
      return;
    }
    // Merge per admitted role group: the base group span and this AS's
    // added entries of the same group, both sorted by neighbor id.
    const std::span<const Entry> groups[3] = {
        base_->providers(as), base_->peers(as), base_->customers(as)};
    const auto [added_begin, added_end] = added_range(as);
    std::size_t a = added_begin;
    for (std::size_t g = 0; g < 3; ++g) {
      if (((roles >> g) & 1U) == 0) {
        // Added entries are ordered by group: step past this one's.
        while (a < added_end && group_of(added_[a].entry.role) == g) {
          ++a;
        }
        continue;
      }
      std::size_t b = 0;
      const std::span<const Entry> row = groups[g];
      while (a < added_end && group_of(added_[a].entry.role) == g) {
        const AsId next_added = added_[a].entry.neighbor;
        while (b < row.size() && row[b].neighbor < next_added) {
          if (!is_removed(as, row[b].neighbor)) {
            fn(row[b]);
          }
          ++b;
        }
        fn(added_[a].entry);
        ++a;
      }
      for (; b < row.size(); ++b) {
        if (!is_removed(as, row[b].neighbor)) {
          fn(row[b]);
        }
      }
    }
  }

  /// The whole overlaid row: for_each_entry with every role admitted.
  template <typename Fn>
  void for_each_entry(AsId as, Fn&& fn) const {
    for_each_entry(as, topology::kAllRoles, fn);
  }

  /// Role of y from x's perspective under the overlay; nullopt if the
  /// overlaid topology has no x-y link. Total on out-of-range ids like the
  /// base lookup.
  [[nodiscard]] std::optional<NeighborRole> role_of(AsId x, AsId y) const {
    // A changed pair has both endpoints touched, so an untouched endpoint
    // means the base relationship stands.
    if (x >= num_ases() || !is_touched(x)) {
      return base_->role_of(x, y);
    }
    const auto [begin, end] = added_range(x);
    for (std::size_t i = begin; i < end; ++i) {
      if (added_[i].entry.neighbor == y) {
        return added_[i].entry.role;
      }
    }
    if (is_removed(x, y)) {
      return std::nullopt;
    }
    return base_->role_of(x, y);
  }

  /// Overlay link id of the x-y link, if the overlaid topology has one.
  /// Ids below first_added_link_id() index base().graph().links(); the
  /// rest resolve through added_link().
  [[nodiscard]] std::optional<std::uint32_t> link_between(AsId x,
                                                          AsId y) const {
    if (x >= num_ases() || !is_touched(x)) {
      const std::optional<topology::LinkId> base = base_->link_between(x, y);
      return base.has_value()
                 ? std::optional<std::uint32_t>(
                       static_cast<std::uint32_t>(*base))
                 : std::nullopt;
    }
    const auto [begin, end] = added_range(x);
    for (std::size_t i = begin; i < end; ++i) {
      if (added_[i].entry.neighbor == y) {
        return added_[i].entry.link;
      }
    }
    if (is_removed(x, y)) {
      return std::nullopt;
    }
    const std::optional<topology::LinkId> base = base_->link_between(x, y);
    return base.has_value() ? std::optional<std::uint32_t>(
                                  static_cast<std::uint32_t>(*base))
                            : std::nullopt;
  }

  [[nodiscard]] bool are_peers(AsId x, AsId y) const {
    return role_of(x, y) == NeighborRole::kPeer;
  }

 private:
  /// One added adjacency slot, owned by the row of `as`.
  struct AddedEntry {
    AsId as = topology::kInvalidAs;
    Entry entry;
  };

  /// CSR row group of a role (provider rows first, then peers, customers).
  [[nodiscard]] static std::size_t group_of(NeighborRole role) {
    switch (role) {
      case NeighborRole::kProvider:
        return 0;
      case NeighborRole::kPeer:
        return 1;
      case NeighborRole::kCustomer:
        break;
    }
    return 2;
  }

  [[nodiscard]] static std::uint64_t pair_key(AsId x, AsId y) {
    const AsId lo = std::min(x, y);
    const AsId hi = std::max(x, y);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  [[nodiscard]] bool is_removed(AsId x, AsId y) const {
    return std::binary_search(removed_.begin(), removed_.end(),
                              pair_key(x, y));
  }

  /// [begin, end) indices into added_ belonging to `as`'s row.
  [[nodiscard]] std::pair<std::size_t, std::size_t> added_range(
      AsId as) const {
    const auto it = std::lower_bound(
        added_.begin(), added_.end(), as,
        [](const AddedEntry& e, AsId id) { return e.as < id; });
    std::size_t begin = static_cast<std::size_t>(it - added_.begin());
    std::size_t end = begin;
    while (end < added_.size() && added_[end].as == as) {
      ++end;
    }
    return {begin, end};
  }

  const CompiledTopology* base_;
  /// Added adjacency slots sorted by (as, role group, neighbor) - i.e. in
  /// the exact order a recompiled row would hold them.
  std::vector<AddedEntry> added_;
  /// The Delta::add list, indexed by (Entry::link - first_added_link_).
  std::vector<LinkChange> added_links_;
  std::uint32_t first_added_link_ = 0;
  /// Canonical pair keys of removed links, sorted.
  std::vector<std::uint64_t> removed_;
  std::vector<AsId> touched_;
};

}  // namespace panagree::scenario
