// Compiled, immutable snapshot of a Graph in CSR (compressed sparse row)
// form, the shared substrate of every large-scale path enumeration.
//
// Graph is optimized for incremental construction: per-AS adjacency is three
// std::vectors and pair lookups go through an unordered_map. That layout is
// hostile to the hot loops of the paper's §VI analyses (valley-free walks,
// MA enumeration, SPP compilation), which perform millions of
// neighbor-iteration and role-lookup operations: every Graph::neighbors()
// call allocates, and every role_of() hashes.
//
// CompiledTopology flattens the adjacency into one contiguous entry array
// with per-AS row offsets. Each row stores the neighbors grouped by role
// (providers, then peers, then customers), each group sorted ascending by
// AS id, and every entry carries the precomputed NeighborRole and LinkId.
// Neighbor iteration is a span over contiguous memory, and a role-masked
// walk (for_each_entry(as, roles, fn)) reads only the admitted groups'
// spans; role_of/link_between are branchless binary searches over a
// sorted row group (O(log degree), no hashing, no allocation).
//
// The snapshot holds a pointer to the source Graph (for link/AS metadata)
// and must not outlive it. Links or ASes added to the Graph after
// compilation are not visible in the snapshot - recompile to pick them up.
//
// The CSR arrays live either in snapshot-owned vectors (the compile()
// constructor) or in externally owned memory (borrow(), used by
// storage::MappedSnapshot to serve the arrays zero-copy out of a
// memory-mapped .pansnap file). Accessors read through spans, so both modes
// share every code path; the raw-array accessors expose the arrays to the
// storage writer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "panagree/topology/graph.hpp"

namespace panagree::topology {

class CompiledTopology {
 public:
  /// One adjacency slot: the neighbor, its role as seen from the row AS,
  /// and the connecting link.
  struct Entry {
    AsId neighbor = kInvalidAs;
    std::uint32_t link = 0;  ///< index into graph().links()
    NeighborRole role = NeighborRole::kPeer;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// Compiles a snapshot of `graph`. O(A + L log L) time, O(A + L) space.
  explicit CompiledTopology(const Graph& graph);

  /// A zero-copy view over externally owned CSR arrays that must be exactly
  /// what compiling `graph` would produce (storage::MappedSnapshot
  /// validates and serves them out of a mapped .pansnap file). The arrays
  /// and `graph` must outlive the snapshot; only structural sizes are
  /// checked here.
  [[nodiscard]] static CompiledTopology borrow(
      const Graph& graph, std::span<const std::uint32_t> row_start,
      std::span<const std::uint32_t> providers_end,
      std::span<const std::uint32_t> peers_end, std::span<const Entry> entries);

  // Spans must re-point at the destination's owned vectors on copy/move,
  // so the special members are spelled out.
  CompiledTopology(const CompiledTopology& other);
  CompiledTopology& operator=(const CompiledTopology& other);
  CompiledTopology(CompiledTopology&& other) noexcept;
  CompiledTopology& operator=(CompiledTopology&& other) noexcept;
  ~CompiledTopology() = default;

  [[nodiscard]] std::size_t num_ases() const { return num_ases_; }
  [[nodiscard]] std::size_t num_links() const { return num_entries_ / 2; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }

  /// All neighbors of `as`: providers, then peers, then customers (each
  /// group sorted ascending by id). Zero-copy.
  [[nodiscard]] std::span<const Entry> entries(AsId as) const {
    check(as);
    return {entries_ + row_start_[as], entries_ + row_start_[as + 1]};
  }

  /// Invokes `fn(entry)` for every adjacency entry of `as` whose role
  /// `roles` admits, in row order. Each role is one group of the row, so
  /// the mask selects whole groups: only the admitted spans between
  /// row_start_, providers_end_ and peers_end_ are read, never a role
  /// byte. The iteration protocol shared with scenario::Overlay, which
  /// merges link deltas into the same order - generic walkers (paths::
  /// BasicPathEnumerator) iterate through this instead of entries() so
  /// they run unchanged on either topology view.
  template <typename Fn>
  void for_each_entry(AsId as, RoleMask roles, Fn&& fn) const {
    check(as);
    // Group g (role g) spans [bound[g], bound[g + 1]).
    const std::uint32_t bound[4] = {row_start_[as], providers_end_[as],
                                    peers_end_[as], row_start_[as + 1]};
    for (unsigned g = 0; g < 3; ++g) {
      if (((roles >> g) & 1U) == 0) {
        continue;
      }
      for (std::uint32_t i = bound[g]; i < bound[g + 1]; ++i) {
        fn(entries_[i]);
      }
    }
  }

  /// The whole row: for_each_entry with every role admitted.
  template <typename Fn>
  void for_each_entry(AsId as, Fn&& fn) const {
    for_each_entry(as, kAllRoles, fn);
  }

  /// pi(X) as a span of entries.
  [[nodiscard]] std::span<const Entry> providers(AsId as) const {
    check(as);
    return {entries_ + row_start_[as], entries_ + providers_end_[as]};
  }

  /// eps(X) as a span of entries.
  [[nodiscard]] std::span<const Entry> peers(AsId as) const {
    check(as);
    return {entries_ + providers_end_[as], entries_ + peers_end_[as]};
  }

  /// gamma(X) as a span of entries.
  [[nodiscard]] std::span<const Entry> customers(AsId as) const {
    check(as);
    return {entries_ + peers_end_[as], entries_ + row_start_[as + 1]};
  }

  [[nodiscard]] std::size_t degree(AsId as) const {
    check(as);
    return row_start_[as + 1] - row_start_[as];
  }

  /// The adjacency entry for neighbor `y` in `x`'s row; nullptr if not
  /// connected. O(log degree(x)) with a linear fast path for short groups.
  [[nodiscard]] const Entry* find(AsId x, AsId y) const;

  /// Role of y from x's perspective, if they are connected. Total like
  /// Graph::role_of: out-of-range ids yield nullopt, not an error.
  /// Searches the lower-degree endpoint's row (inverting the role when
  /// searching from y's side), so lookups involving a hub AS cost
  /// O(log degree(stub)).
  [[nodiscard]] std::optional<NeighborRole> role_of(AsId x, AsId y) const {
    if (!in_range(x) || !in_range(y)) {
      return std::nullopt;
    }
    if (degree(x) <= degree(y)) {
      const Entry* e = find(x, y);
      return e == nullptr ? std::nullopt
                          : std::optional<NeighborRole>(e->role);
    }
    const Entry* e = find(y, x);
    return e == nullptr ? std::nullopt
                        : std::optional<NeighborRole>(invert(e->role));
  }

  /// Link between x and y if one exists (total and degree-aware like
  /// role_of).
  [[nodiscard]] std::optional<LinkId> link_between(AsId x, AsId y) const {
    if (!in_range(x) || !in_range(y)) {
      return std::nullopt;
    }
    const Entry* e = degree(x) <= degree(y) ? find(x, y) : find(y, x);
    return e == nullptr ? std::nullopt
                        : std::optional<LinkId>(static_cast<LinkId>(e->link));
  }

  [[nodiscard]] bool are_peers(AsId x, AsId y) const {
    return role_of(x, y) == NeighborRole::kPeer;
  }

  [[nodiscard]] bool is_provider_of(AsId provider, AsId customer) const {
    // Via role_of: total on garbage ids (like Graph's) and degree-aware.
    return role_of(customer, provider) == NeighborRole::kProvider;
  }

  [[nodiscard]] bool is_customer_of(AsId customer, AsId provider) const {
    return is_provider_of(provider, customer);
  }

  /// The raw CSR arrays (the storage layer serializes these verbatim).
  [[nodiscard]] std::span<const std::uint32_t> row_start_array() const {
    return {row_start_, num_ases_ + 1};
  }
  [[nodiscard]] std::span<const std::uint32_t> providers_end_array() const {
    return {providers_end_, num_ases_};
  }
  [[nodiscard]] std::span<const std::uint32_t> peers_end_array() const {
    return {peers_end_, num_ases_};
  }
  [[nodiscard]] std::span<const Entry> entry_array() const {
    return {entries_, num_entries_};
  }

  /// True when the CSR arrays live in snapshot-owned vectors (false for
  /// borrow()ed views, e.g. over a memory-mapped file).
  [[nodiscard]] bool owns_storage() const { return owns_; }

 private:
  CompiledTopology() = default;  // borrow() assembles the members itself

  /// Points the access pointers at the owned vectors.
  void point_at_owned() noexcept;
  /// Copy/move helper: re-point at own storage (owning) or copy the
  /// borrowed views.
  void adopt_views_from(const CompiledTopology& other);
  [[nodiscard]] bool in_range(AsId as) const {
    return static_cast<std::size_t>(as) < num_ases_;
  }

  void check(AsId as) const {
    // size_t comparison: as + 1 would wrap for the kInvalidAs sentinel.
    util::require(in_range(as), "CompiledTopology: AS out of range");
  }

  /// Role of x as seen from the other endpoint, given the role of the
  /// other endpoint as seen from x.
  [[nodiscard]] static NeighborRole invert(NeighborRole role) {
    switch (role) {
      case NeighborRole::kProvider:
        return NeighborRole::kCustomer;
      case NeighborRole::kCustomer:
        return NeighborRole::kProvider;
      case NeighborRole::kPeer:
        break;
    }
    return NeighborRole::kPeer;
  }

  /// Hot lookup state first (raw pointers into the owned vectors or into
  /// borrowed memory - one load per access, measured faster than spans on
  /// the role-lookup microbench). row_start_ holds row offsets into
  /// entries_, num_ases_ + 1 values; providers_end_/peers_end_ the
  /// absolute end offset of the provider (resp. peer) group per row.
  const std::uint32_t* row_start_ = nullptr;
  const std::uint32_t* providers_end_ = nullptr;
  const std::uint32_t* peers_end_ = nullptr;
  const Entry* entries_ = nullptr;
  std::size_t num_ases_ = 0;
  std::size_t num_entries_ = 0;
  const Graph* graph_ = nullptr;
  bool owns_ = true;
  /// Backing storage in owning mode; empty when borrowed.
  std::vector<std::uint32_t> owned_row_start_;
  std::vector<std::uint32_t> owned_providers_end_;
  std::vector<std::uint32_t> owned_peers_end_;
  std::vector<Entry> owned_entries_;
};

}  // namespace panagree::topology
